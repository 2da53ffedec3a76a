package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"qirana"
	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
	paper "qirana/internal/workload"
)

// workloads.json records each workload's inputs, offered rate, client
// count and reason, plus the end-to-end metric each per-layer metric
// should move. The program reads its knobs from the same file, so the
// record and the run cannot drift apart.
//
//go:embed workloads.json
var specJSON []byte

type spec struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	// DataSeed fixes the dataset and support set; the run's --seed
	// drives only the request stream (pool order, constants, arrivals,
	// buyers) and the checks' samples.
	DataSeed    int64   `json:"data_seed"`
	SupportSize int     `json:"support_size"`
	Shards      int     `json:"shards"`
	Durable     bool    `json:"durable"`
	OfferedRPS  float64 `json:"offered_rps"`
	RateWhy     string  `json:"offered_rps_why"`
	// Clients records the closed loop's client count; the only value
	// the program runs is "nproc", one client per CPU.
	Clients string `json:"clients"`
	Inputs  string `json:"inputs"`
	Why     string `json:"why"`
}

type layerSpec struct {
	Unit  string   `json:"unit"`
	Moves []string `json:"moves"`
	On    string   `json:"on"`
}

type specFile struct {
	LedgerFlush string               `json:"ledger_flush"`
	Workloads   map[string]spec      `json:"workloads"`
	PerLayer    map[string]layerSpec `json:"per_layer"`
}

func loadSpecs() (specFile, error) {
	var f specFile
	if err := json.Unmarshal(specJSON, &f); err != nil {
		return f, fmt.Errorf("workloads.json: %w", err)
	}
	return f, nil
}

type reqKind int

const (
	kindQuote reqKind = iota // POST /v1/quote {"sql": ...}
	kindStmt                 // POST /v1/quote {"stmt": id, "params": [...]}
	kindAsk                  // POST /v1/ask {"buyer": ..., "sql": ...}
)

// request is one generated buyer request. SQL is always the query whose
// price is served: the ad-hoc text, or the bound instance of Tmpl.
type request struct {
	Kind   reqKind
	SQL    string
	Tmpl   string
	Params []any
	Buyer  string
	Shape  string
}

// template is a prepared statement the workload quotes through
// /v1/prepare + stmt.
type template struct {
	SQL    string
	params func(r *rand.Rand, codes []string) []any
}

// workload builds one workload's dataset and request streams from a seed.
type workload struct {
	name string
	spec spec
	// gen returns the workload's request source over db. Two sources
	// built from the same (db, seed) yield the same sequence.
	gen func(db *qirana.Database, seed int64) source
	// probeTmpl is the template the traced run prices through Stmt.Price.
	probeTmpl template
}

// source yields a workload's requests: prime is priced before timing,
// next produces the timed stream.
type source struct {
	templates []string
	prime     []request
	next      func() request
	// fresh draws a never-seen instance of a named shape (cold-quotes).
	fresh func(shape string) request
}

func dataset(s spec, seed int64) *qirana.Database {
	switch s.Dataset {
	case "world":
		return datagen.World(seed)
	case "tpch":
		return datagen.TPCH(seed, s.Scale)
	}
	panic("unknown dataset " + s.Dataset)
}

func workloadByName(specs specFile, name string) (*workload, error) {
	s, ok := specs.Workloads[name]
	if !ok {
		names := make([]string, 0, len(specs.Workloads))
		for n := range specs.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if s.Clients != "nproc" {
		return nil, fmt.Errorf("%s: clients is %q, but the closed loop always runs nproc clients", name, s.Clients)
	}
	w := &workload{name: name, spec: s}
	switch name {
	case "warm-quotes":
		w.gen = warmSource
		w.probeTmpl = worldTemplates[0]
	case "cold-quotes":
		w.gen = coldSource
		w.probeTmpl = q6Template
	case "durable-purchases":
		w.gen = durableSource
		w.probeTmpl = worldTemplates[0]
	default:
		return nil, fmt.Errorf("workload %q has no generator", name)
	}
	return w, nil
}

// sqlLit renders a parameter as the SQL literal the broker binds it to.
func sqlLit(p any) string {
	switch v := p.(type) {
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'f', -1, 64)
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	panic(fmt.Sprintf("unsupported param %T", p))
}

// bind substitutes $N placeholders, highest index first so $1 never
// clobbers $10.
func bind(tmpl string, params []any) string {
	for i := len(params); i >= 1; i-- {
		tmpl = strings.ReplaceAll(tmpl, "$"+strconv.Itoa(i), sqlLit(params[i-1]))
	}
	return tmpl
}

func stmtRequest(t template, r *rand.Rand, codes []string) request {
	ps := t.params(r, codes)
	return request{Kind: kindStmt, Tmpl: t.SQL, Params: ps, SQL: bind(t.SQL, ps), Shape: "stmt"}
}

// ---- world (warm-quotes, durable-purchases) ----

// countryCodes returns the world dataset's country codes in table order.
func countryCodes(db *qirana.Database) []string {
	t := db.Table("Country")
	out := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = row[0].String()
	}
	return out
}

var worldTemplates = []template{
	{SQL: "SELECT Name FROM Country WHERE Population > $1", params: func(r *rand.Rand, _ []string) []any {
		return []any{int64(r.Intn(200)) * 500000}
	}},
	{SQL: "SELECT Name, Population FROM City WHERE CountryCode = $1", params: func(r *rand.Rand, codes []string) []any {
		return []any{codes[r.Intn(len(codes))]}
	}},
	{SQL: "SELECT count(Language) FROM CountryLanguage WHERE CountryCode = $1 AND Percentage > $2", params: func(r *rand.Rand, codes []string) []any {
		return []any{codes[r.Intn(len(codes))], int64(r.Intn(10) * 10)}
	}},
}

// worldAdhoc is the warm pool's ad-hoc SQL: the paper's Qw queries that
// take the fast path, plus the §2.4 parametrized families.
func worldAdhoc(db *qirana.Database) []string {
	var out []string
	for _, q := range paper.World() {
		c, err := exec.Compile(q.SQL, db.Schema)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", q.Name, err))
		}
		if _, err := plan.Extract(c.A); err == nil {
			out = append(out, q.SQL)
		}
	}
	for u := 10; u <= 240; u += 10 {
		out = append(out, paper.SigmaU(u).SQL)
	}
	for u := 1; u <= 8; u++ {
		out = append(out, paper.PiU(u).SQL)
	}
	for _, p := range []float64{1, 2, 5, 10, 20, 30, 50, 75, 90} {
		out = append(out, paper.JoinU(p).SQL)
	}
	return out
}

// primeSeed draws what set-up primes, so that set-up does the same work
// whatever the run's seed.
const primeSeed = 0x7072696d65

// warmSource: a fixed pool of ad-hoc SQL and prepared-statement instances
// (121 entries, far inside the 1024-entry quote cache), all primed,
// then quoted Zipf-skewed. The pool's order, and so which entries are
// hot, is fixed as well: a cache hit's cost depends on its SQL text, so
// a seeded order would move the figures by which text came out hot. The
// seed drives the draws.
func warmSource(db *qirana.Database, seed int64) source {
	codes := countryCodes(db)
	pr := rand.New(rand.NewSource(primeSeed))
	var pool []request
	for _, q := range worldAdhoc(db) {
		pool = append(pool, request{Kind: kindQuote, SQL: q, Shape: "adhoc"})
	}
	seen := map[string]bool{}
	for _, t := range worldTemplates {
		for n := 0; n < 16; {
			rq := stmtRequest(t, pr, codes)
			if !seen[rq.SQL] {
				seen[rq.SQL] = true
				pool = append(pool, rq)
				n++
			}
		}
	}
	// Ranks interleave ad-hoc and prepared entries in a fixed ratio.
	nAdhoc := len(pool) - 16*len(worldTemplates)
	nStmt := len(pool) - nAdhoc
	adhoc, stmts := pr.Perm(nAdhoc), pr.Perm(nStmt)
	perm := make([]int, 0, len(pool))
	for k := range pool {
		if (k+1)*nStmt/len(pool) > k*nStmt/len(pool) {
			perm = append(perm, nAdhoc+stmts[0])
			stmts = stmts[1:]
		} else {
			perm = append(perm, adhoc[0])
			adhoc = adhoc[1:]
		}
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(len(pool)-1))
	src := source{prime: pool, next: func() request { return pool[perm[z.Uint64()]] }}
	for _, t := range worldTemplates {
		src.templates = append(src.templates, t.SQL)
	}
	return src
}

// durableSource: about 4x the quote cache's capacity in distinct world
// queries, Zipf-skewed; one request in four is a purchase by one of 64
// Zipf-skewed buyers, so buyers repeat.
func durableSource(db *qirana.Database, seed int64) source {
	codes := countryCodes(db)
	r := rand.New(rand.NewSource(seed))
	code := func() string { return codes[r.Intn(len(codes))] }
	shapes := []struct {
		name string
		gen  func() string
	}{
		{"country", func() string {
			return fmt.Sprintf("SELECT Name FROM Country WHERE Population > %d", r.Intn(100000)*1000)
		}},
		{"city", func() string {
			return fmt.Sprintf("SELECT Name, Population FROM City WHERE CountryCode = '%s' AND Population > %d", code(), r.Intn(5000)*100)
		}},
		{"language", func() string {
			return fmt.Sprintf("SELECT Language FROM CountryLanguage WHERE CountryCode = '%s' AND Percentage > %d", code(), r.Intn(100))
		}},
		{"citycount", func() string {
			return fmt.Sprintf("SELECT count(ID) FROM City WHERE CountryCode = '%s' AND Population < %d", code(), r.Intn(10000)*100)
		}},
	}
	// 1024 distinct queries per shape; rank k of the Zipf order is always
	// a query of shape k%4, so the seed picks which queries are hot but
	// not which shapes.
	const perShape = 1024
	seen := map[string]bool{}
	var pool []request
	for i := 0; i < perShape*len(shapes); i++ {
		sh := shapes[i%len(shapes)]
		for {
			if q := sh.gen(); !seen[q] {
				seen[q] = true
				pool = append(pool, request{Kind: kindQuote, SQL: q, Shape: sh.name})
				break
			}
		}
	}
	perm := r.Perm(perShape)
	rank := func(k int) request { return pool[perm[k/len(shapes)]*len(shapes)+k%len(shapes)] }
	z := rand.NewZipf(r, 1.2, 1, uint64(len(pool)-1))
	bz := rand.NewZipf(r, 1.2, 1, 63)
	var prime []request
	for k := 0; k < 128; k++ {
		prime = append(prime, rank(k))
	}
	deck := []reqKind{kindQuote, kindQuote, kindQuote, kindAsk}
	n := 0
	next := func() request {
		if n%len(deck) == 0 {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		k := deck[n%len(deck)]
		n++
		rq := rank(int(z.Uint64()))
		if k == kindAsk {
			rq.Kind, rq.Buyer, rq.Shape = kindAsk, fmt.Sprintf("buyer-%02d", bz.Uint64()), "ask"
		}
		return rq
	}
	return source{prime: prime, next: next}
}

// ---- TPC-H (cold-quotes) ----

var (
	tpchRegions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	tpchShipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	tpchContainers = []string{"SM CASE", "SM BOX", "MED BOX", "MED BAG", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP JAR"}
	tpchTypes      = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
)

// day renders a random date of the given year as 'YYYY-MM-DD'.
func day(r *rand.Rand, year int) string {
	return fmt.Sprintf("%d-%02d-%02d", year, 1+r.Intn(12), 1+r.Intn(28))
}

// coldShapes generate TPC-H Q1, Q2, Q5, Q6, Q12 and Q17 with seeded
// constants (Figure 5b's dialect). quota is each shape's exact count per
// deck of 100 requests, so every run carries the same mix; the cheap
// shapes hold 36 of them, so the median falls inside the Q5/Q1 cluster
// rather than on the edge between two clusters.
var coldShapes = []struct {
	name  string
	quota int
	gen   func(r *rand.Rand) string
}{
	{"Q1", 30, func(r *rand.Rand) string {
		return fmt.Sprintf(`select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order from lineitem where l_shipdate <= date '%s' - interval '%d' day group by l_returnflag, l_linestatus`,
			day(r, 1998), 60+r.Intn(61))
	}},
	{"Q5", 30, func(r *rand.Rand) string {
		return fmt.Sprintf(`select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue from customer, orders, lineitem, supplier, nation, region where c_custkey = o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey and c_nationkey = s_nationkey and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%s' and o_orderdate >= date '%s' and o_orderdate < date '%[2]s' + interval '1' year group by n_name`,
			tpchRegions[r.Intn(len(tpchRegions))], day(r, 1993+r.Intn(5)))
	}},
	{"Q6", 18, func(r *rand.Rand) string {
		k := r.Intn(8)
		return fmt.Sprintf(`select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '%s' and l_shipdate < date '%[1]s' + interval '1' year and l_discount between %.2f and %.2f and l_quantity < %d`,
			day(r, 1993+r.Intn(5)), float64(1+k)/100, float64(3+k)/100, 24+r.Intn(2))
	}},
	{"Q12", 18, func(r *rand.Rand) string {
		i := r.Intn(len(tpchShipModes))
		j := (i + 1 + r.Intn(len(tpchShipModes)-1)) % len(tpchShipModes)
		return fmt.Sprintf(`select l_shipmode, sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH' then 1 else 0 end) as high_line_count, sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH' then 1 else 0 end) as low_line_count from orders, lineitem where o_orderkey = l_orderkey and (l_shipmode = '%s' or l_shipmode = '%s') and l_commitdate < l_receiptdate and l_shipdate < l_commitdate and l_receiptdate >= date '%s' and l_receiptdate < date '%[3]s' + interval '1' year group by l_shipmode`,
			tpchShipModes[i], tpchShipModes[j], day(r, 1993+r.Intn(5)))
	}},
	{"Q2", 2, func(r *rand.Rand) string {
		region := tpchRegions[r.Intn(len(tpchRegions))]
		return fmt.Sprintf(`select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment from part, supplier, partsupp, nation, region where p_partkey = ps_partkey and s_suppkey = ps_suppkey and p_size = %d and p_type like '%%%s' and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%s' and ps_supplycost = (select min(ps_supplycost) from partsupp, supplier, nation, region where p_partkey = ps_partkey and s_suppkey = ps_suppkey and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%[3]s')`,
			1+r.Intn(50), tpchTypes[r.Intn(len(tpchTypes))], region)
	}},
	{"Q17", 2, func(r *rand.Rand) string {
		return fmt.Sprintf(`select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part where p_partkey = l_partkey and p_brand = 'Brand#%d%d' and p_container = '%s' and l_quantity < (select 0.2 * avg(l_quantity) from lineitem where l_partkey = p_partkey)`,
			1+r.Intn(5), 1+r.Intn(5), tpchContainers[r.Intn(len(tpchContainers))])
	}},
}

// q6Template is the cold workload's prepared shape for the Stmt probe.
var q6Template = template{
	SQL: `select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' and l_discount between $1 and $2 and l_quantity < $3`,
	params: func(r *rand.Rand, _ []string) []any {
		k := r.Intn(8)
		return []any{float64(1+k) / 100, float64(3+k) / 100, int64(20 + r.Intn(10))}
	},
}

// coldSource: every request is SQL text never seen before in the run,
// dealt from shuffled decks that hold each shape's exact quota.
func coldSource(_ *qirana.Database, seed int64) source {
	r := rand.New(rand.NewSource(seed))
	var deck []int
	for i, s := range coldShapes {
		for k := 0; k < s.quota; k++ {
			deck = append(deck, i)
		}
	}
	seen := map[string]bool{}
	fresh := func(r *rand.Rand, shape int) request {
		for {
			q := coldShapes[shape].gen(r)
			if !seen[q] {
				seen[q] = true
				return request{Kind: kindQuote, SQL: q, Shape: coldShapes[shape].name}
			}
		}
	}
	// Priming warms the process (allocator, code paths) on one fresh
	// instance of each delta-path shape; the quote cache stays cold for
	// everything timed.
	pr := rand.New(rand.NewSource(primeSeed))
	var prime []request
	for i := 0; i < 4; i++ {
		prime = append(prime, fresh(pr, i))
	}
	n := 0
	next := func() request {
		if n%len(deck) == 0 {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		rq := fresh(r, deck[n%len(deck)])
		n++
		return rq
	}
	byName := func(shape string) request {
		for i, s := range coldShapes {
			if s.name == shape {
				return fresh(r, i)
			}
		}
		panic("unknown shape " + shape)
	}
	return source{prime: prime, next: next, fresh: byName}
}
