package disagree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"qirana/internal/datagen"
	"qirana/internal/schema"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/value"
	"qirana/internal/workload"
)

// buildSeed seeds TestOnePassBuildMatchesSeparateQueries; 0 draws a fresh
// seed from the clock. A failure logs its seed: set it here to replay the
// same queries.
const buildSeed int64 = 0

// TestOnePassBuildMatchesSeparateQueries checks the one-pass checker
// build against the two statements it fuses, run separately: for random
// aggregate and SPJ queries over the five generator schemas, the
// per-source contribution sets must equal the primary keys of
// SPJ.ContribStmt's rows, and the group view must equal a plain fold over
// the rows of a separately compiled SPJ.UnrolledStmt.
func TestOnePassBuildMatchesSeparateQueries(t *testing.T) {
	seed := buildSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (set buildSeed to replay)", seed)
	rng := rand.New(rand.NewSource(seed))
	dbs := []struct {
		name string
		db   *storage.Database
	}{
		{"world", datagen.World(1)},
		{"carcrash", datagen.CarCrash(2, 200)},
		{"ssb", datagen.SSB(3, 0.0005)},
		{"tpch", datagen.TPCH(4, 0.0005)},
		{"dblp", datagen.DBLP(5, 0.005)},
	}
	for _, d := range dbs {
		built := 0
		for i := 0; i < 40; i++ {
			sql := randomSchemaQuery(rng, d.db)
			q, err := exec.Compile(sql, d.db.Schema)
			if err != nil {
				t.Fatalf("%s: compile %s: %v", d.name, sql, err)
			}
			c, err := New(q, d.db)
			if err != nil {
				continue // outside the fast path
			}
			built++
			checkContrib(t, c, d.db, sql)
			if c.SPJ.IsAgg {
				checkGroupView(t, c, d.db, sql)
			}
		}
		if built == 0 {
			t.Errorf("%s: no generated query reached the fast path", d.name)
		}
	}
}

// checkContrib compares the checker's contribution sets with the keys of
// the separately run contribution query.
func checkContrib(t *testing.T, c *Checker, db *storage.Database, sql string) {
	t.Helper()
	s := c.SPJ
	cq, err := exec.CompileStmt(s.ContribStmt, db.Schema)
	if err != nil {
		t.Fatalf("%s: compile contribution query: %v", sql, err)
	}
	res, err := cq.Run(db)
	if err != nil {
		t.Fatalf("%s: run contribution query: %v", sql, err)
	}
	for i := range s.RelOfSource {
		want := map[string]bool{}
		for _, row := range res.Rows {
			off := s.ContribOff[i]
			want[value.Key(row[off:off+s.ContribPKW[i]])] = true
		}
		got := c.contrib[i]
		if len(got) != len(want) {
			t.Fatalf("%s: source %d: %d contributing keys, want %d", sql, i, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: source %d: contributing key %q missing", sql, i, k)
			}
		}
	}
}

// checkGroupView compares the checker's group view with a fold, written
// here, over the rows of a separately compiled unrolled statement.
func checkGroupView(t *testing.T, c *Checker, db *storage.Database, sql string) {
	t.Helper()
	s := c.SPJ
	uq, err := exec.CompileStmt(s.UnrolledStmt, db.Schema)
	if err != nil {
		t.Fatalf("%s: compile unrolled query: %v", sql, err)
	}
	res, err := uq.Run(db)
	if err != nil {
		t.Fatalf("%s: run unrolled query: %v", sql, err)
	}
	want := map[string]*exec.GroupAgg{}
	for _, row := range res.Rows {
		k := value.Key(row[:s.NumGroups])
		st := want[k]
		if st == nil {
			na := len(s.Aggs)
			st = &exec.GroupAgg{N: make([]int64, na), Sum: make([]float64, na),
				Min: make([]value.Value, na), Max: make([]value.Value, na),
				Cand: make([]map[string]exec.CandCount, na)}
			want[k] = st
		}
		st.Rows++
		for j, ag := range s.Aggs {
			v := row[ag.ArgCol]
			if v.IsNull() {
				continue
			}
			st.N[j]++
			switch ag.Fn.Name {
			case "SUM", "AVG":
				st.Sum[j] += v.AsFloat()
			case "MIN", "MAX":
				if cmp, ok := value.Compare(v, st.Min[j]); st.Min[j].IsNull() || ok && cmp < 0 {
					st.Min[j] = v
				}
				if cmp, ok := value.Compare(v, st.Max[j]); st.Max[j].IsNull() || ok && cmp > 0 {
					st.Max[j] = v
				}
				if st.Cand[j] == nil {
					st.Cand[j] = map[string]exec.CandCount{}
				}
				vk := value.Key([]value.Value{v})
				e := st.Cand[j][vk]
				if e.N == 0 {
					e.Val = v
				}
				e.N++
				st.Cand[j][vk] = e
			}
		}
	}
	gv, err := c.groupView()
	if err != nil {
		t.Fatalf("%s: group view: %v", sql, err)
	}
	if len(gv.Groups) != len(want) {
		t.Fatalf("%s: %d groups, want %d", sql, len(gv.Groups), len(want))
	}
	for k, w := range want {
		g := gv.Groups[k]
		if g == nil {
			t.Fatalf("%s: group %q missing", sql, k)
		}
		if g.Rows != w.Rows {
			t.Fatalf("%s: group %q: Rows %d, want %d", sql, k, g.Rows, w.Rows)
		}
		for j, ag := range s.Aggs {
			fn := ag.Fn.Name
			if g.N[j] != w.N[j] || g.Sum[j] != w.Sum[j] {
				t.Fatalf("%s: group %q agg %d: N/Sum %d/%v, want %d/%v", sql, k, j, g.N[j], g.Sum[j], w.N[j], w.Sum[j])
			}
			if fn == "MIN" && !sameValue(g.Min[j], w.Min[j]) || fn == "MAX" && !sameValue(g.Max[j], w.Max[j]) {
				t.Fatalf("%s: group %q agg %d: %s extremum differs", sql, k, j, fn)
			}
			if fn != "MIN" && fn != "MAX" {
				continue
			}
			got := candOf(g, j)
			if len(got) != len(w.Cand[j]) {
				t.Fatalf("%s: group %q agg %d: %d candidates, want %d", sql, k, j, len(got), len(w.Cand[j]))
			}
			for vk, e := range w.Cand[j] {
				if ge, ok := got[vk]; !ok || ge.N != e.N || !sameValue(ge.Val, e.Val) {
					t.Fatalf("%s: group %q agg %d: candidate %q is %+v, want %+v", sql, k, j, vk, ge, e)
				}
			}
		}
	}
}

func sameValue(a, b value.Value) bool {
	return value.Key([]value.Value{a}) == value.Key([]value.Value{b})
}

// randomSchemaQuery draws a fast-path-shaped query over db's schema: one
// relation, or two joined key-to-attribute on a pair of same-kind
// attributes whose names share a suffix (l_orderkey = o_orderkey) — a
// primary-key self-join when no such pair exists — with random filters on
// values taken from the data, then either a projection (sometimes
// DISTINCT) or a grouped aggregation.
func randomSchemaQuery(rng *rand.Rand, db *storage.Database) string {
	names := db.Schema.Names()
	r1 := db.Schema.Relation(names[rng.Intn(len(names))])
	type col struct {
		alias string
		rel   *schema.Relation
		idx   int
	}
	srcs := []col{{alias: "a", rel: r1}}
	var where []string
	if rng.Intn(2) == 0 {
		r2 := db.Schema.Relation(names[rng.Intn(len(names))])
		if a1, a2 := joinPair(rng, r1, r2); a1 >= 0 {
			where = append(where, fmt.Sprintf("a.%s = b.%s", r1.Attributes[a1].Name, r2.Attributes[a2].Name))
		} else {
			r2 = r1
			for _, k := range r1.Key {
				where = append(where, fmt.Sprintf("a.%s = b.%s", r1.Attributes[k].Name, r1.Attributes[k].Name))
			}
		}
		srcs = append(srcs, col{alias: "b", rel: r2})
	}
	pick := func() col {
		s := srcs[rng.Intn(len(srcs))]
		s.idx = rng.Intn(len(s.rel.Attributes))
		return s
	}
	ref := func(c col) string { return c.alias + "." + c.rel.Attributes[c.idx].Name }
	for n := rng.Intn(3); n > 0; n-- {
		c := pick()
		rows := db.Table(c.rel.Name).Rows
		if len(rows) == 0 {
			continue
		}
		v := rows[rng.Intn(len(rows))][c.idx]
		if v.IsNull() {
			continue
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		where = append(where, fmt.Sprintf("%s %s %s", ref(c), ops[rng.Intn(len(ops))], v.SQL()))
	}
	var from []string
	for _, s := range srcs {
		from = append(from, s.rel.Name+" "+s.alias)
	}
	tail := " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		tail += " WHERE " + strings.Join(where, " AND ")
	}

	if rng.Intn(2) == 0 {
		var items []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			items = append(items, ref(pick()))
		}
		distinct := ""
		if rng.Intn(3) == 0 {
			distinct = "DISTINCT "
		}
		return "SELECT " + distinct + strings.Join(items, ", ") + tail
	}
	var groups []string
	for n := rng.Intn(3); n > 0; n-- {
		groups = append(groups, ref(pick()))
	}
	items := append([]string(nil), groups...)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		c := pick()
		numeric := c.rel.Attributes[c.idx].Type == value.KindInt || c.rel.Attributes[c.idx].Type == value.KindFloat
		switch k := rng.Intn(5); {
		case k == 0:
			items = append(items, "count(*)")
		case k == 1:
			items = append(items, "count("+ref(c)+")")
		case k == 2 && numeric:
			items = append(items, []string{"sum", "avg"}[rng.Intn(2)]+"("+ref(c)+")")
		default:
			items = append(items, []string{"min", "max"}[rng.Intn(2)]+"("+ref(c)+")")
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") + tail
	if len(groups) > 0 {
		sql += " GROUP BY " + strings.Join(groups, ", ")
	}
	return sql
}

// joinPair picks attributes of r1 and r2 of one non-string kind whose
// lower-cased names, without any "x_" prefix, are equal or one ends with
// the other, one of them being its relation's whole primary key (so the
// join stays as small as the other relation); (-1, -1) when there is none.
func joinPair(rng *rand.Rand, r1, r2 *schema.Relation) (int, int) {
	suffix := func(s string) string {
		s = strings.ToLower(s)
		if i := strings.IndexByte(s, '_'); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	var pairs [][2]int
	for i, x := range r1.Attributes {
		for j, y := range r2.Attributes {
			sx, sy := suffix(x.Name), suffix(y.Name)
			keyed := len(r1.Key) == 1 && r1.Key[0] == i || len(r2.Key) == 1 && r2.Key[0] == j
			if keyed && x.Type == y.Type && x.Type != value.KindString && (strings.HasSuffix(sx, sy) || strings.HasSuffix(sy, sx)) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	if len(pairs) == 0 {
		return -1, -1
	}
	p := pairs[rng.Intn(len(pairs))]
	return p[0], p[1]
}

// BenchmarkCheckerBuild times checker construction alone (the one-pass
// build of contribution sets and group view) for the fast-path TPC-H
// queries of Figure 5b on a scale-factor-0.0005 instance.
func BenchmarkCheckerBuild(b *testing.B) {
	db := datagen.TPCH(1, 0.0005)
	for _, w := range workload.TPCH() {
		switch w.Name {
		case "Q1", "Q5", "Q6", "Q12":
		default:
			continue
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh compile per build: the engine builds one checker
				// per new query, so no execution cache carries over.
				q, err := exec.Compile(w.SQL, db.Schema)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := New(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
