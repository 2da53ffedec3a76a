package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"qirana"
	"qirana/internal/disagree"
	"qirana/internal/durable"
	"qirana/internal/httpapi"
	"qirana/internal/obs"
	"qirana/internal/pricing"
	"qirana/internal/shard"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/parser"
	"qirana/internal/support"
)

// probeEnv is the traced run's state: the live stack after its load
// phase, the independent engine, and the per-layer metrics being filled.
// Every probe times the benchmark's own calls into one module's exported
// functions as spans; metrics are medians over those spans. Replays that
// would warm a measured cache run against twins built from the same seed.
type probeEnv struct {
	w      *workload
	seed   int64
	live   *stack
	tr     *tracer
	eng    *pricing.Engine
	reqs   []request
	pl     map[string]metric
	res    *result
	sample []request
	// bitmaps are disagreement bitmaps of sampled requests, input to the
	// fold and ledger probes.
	bitmaps [][]bool
}

// probeSize is how many distinct requests of the run each probe replays.
func probeSize(w *workload) int {
	if w.name == "cold-quotes" {
		return 16
	}
	return 48
}

func (p *probeEnv) set(name, unit string, value float64, n int) {
	p.pl[name] = metric{Value: value, Unit: unit, N: n}
}

// setMedian stores the median duration of the named spans in unit.
func (p *probeEnv) setMedian(metricName, span, unit string) {
	ds := p.tr.durations(span)
	div := map[string]float64{"us": 1e3, "ms": 1e6, "s": 1e9}[unit]
	p.set(metricName, unit, median(ds)/div, len(ds))
}

func (p *probeEnv) build(o buildOpts) (*stack, error) {
	st, _, err := build(p.w, p.seed, outRoot, o)
	return st, err
}

func probe(p *probeEnv) error {
	// A seeded sample of the run's distinct quote requests.
	seen := map[string]bool{}
	for _, i := range rand.New(rand.NewSource(p.seed ^ 0x70726f6265)).Perm(len(p.reqs)) {
		rq := p.reqs[i]
		if rq.Kind == kindAsk || seen[rq.SQL] {
			continue
		}
		seen[rq.SQL] = true
		p.sample = append(p.sample, rq)
		if len(p.sample) == probeSize(p.w) {
			break
		}
	}
	for _, f := range []func() error{p.frontEnd, p.broker, p.sweep, p.shards, p.ledger, p.setup} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// frontEnd: HTTP round trip versus in-process pricing of the same
// requests, then decode, encode, parse and compile on the same inputs.
func (p *probeEnv) frontEnd() error {
	ctx := context.Background()
	httpSt, inproc := p.live, p.live
	if p.w.name != "warm-quotes" {
		// Replaying would warm the live cache: use two primed twins.
		var err error
		if httpSt, err = p.build(buildOpts{serve: true, durable: p.w.spec.Durable, shards: p.w.spec.Shards, prime: true}); err != nil {
			return err
		}
		defer httpSt.close()
		if inproc, err = p.build(buildOpts{durable: p.w.spec.Durable, shards: p.w.spec.Shards, prime: true}); err != nil {
			return err
		}
		defer inproc.close()
	}
	for _, t := range inproc.src.templates {
		if _, ok := inproc.stmts[t]; !ok {
			s, err := inproc.broker.Prepare(ctx, t)
			if err != nil {
				return err
			}
			inproc.stmts[t] = s
		}
	}
	var resps []*qirana.PriceResponse
	for i := range p.sample {
		rq := &p.sample[i]
		var resp *qirana.PriceResponse
		var err error
		name := "qirana.price"
		if rq.Kind == kindStmt {
			name = "qirana.stmt_price"
		}
		p.tr.timed(name, 0, int64(i), func() { resp, err = inproc.priceInProcess(ctx, rq) })
		if err != nil {
			return fmt.Errorf("in-process replay %q: %w", rq.SQL, err)
		}
		resps = append(resps, resp)
		var ok bool
		p.tr.timed("replay.http", 0, int64(i), func() { _, ok = httpSt.client.serve(ctx, rq, httpSt.body(rq), "") })
		if !ok {
			return fmt.Errorf("HTTP replay %q failed", rq.SQL)
		}
	}
	inDur := append(p.tr.durations("qirana.price"), p.tr.durations("qirana.stmt_price")...)
	httpDur := p.tr.durations("replay.http")
	p.set("httpapi.roundtrip_extra_us", "us", (median(httpDur)-median(inDur))/1e3, len(httpDur))

	const reps = 5
	for i := range p.sample {
		rq := &p.sample[i]
		body := p.live.body(rq)
		for r := 0; r < reps; r++ {
			var v struct {
				SQL    string `json:"sql"`
				Stmt   int64  `json:"stmt"`
				Params []any  `json:"params"`
			}
			req := httptest.NewRequest("POST", "/v1/quote", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			p.tr.timed("httpapi.decode", 0, int64(i), func() { httpapi.DecodeBody(rec, req, &v) })
			rec = httptest.NewRecorder()
			p.tr.timed("httpapi.encode", 0, int64(i), func() { httpapi.WriteJSON(rec, resps[i]) })
			p.tr.timed("parser.parse", 0, int64(i), func() { _, _ = parser.Parse(rq.SQL) })
			p.tr.timed("exec.compile", 0, int64(i), func() { _, _ = exec.Compile(rq.SQL, p.live.db.Schema) })
		}
		q, err := exec.Compile(rq.SQL, p.live.db.Schema)
		if err != nil {
			return err
		}
		p.tr.timed("exec.run", 0, int64(i), func() { _, err = q.Run(p.live.db) })
		if err != nil {
			return err
		}
	}
	p.setMedian("httpapi.decode_us", "httpapi.decode", "us")
	p.setMedian("httpapi.encode_us", "httpapi.encode", "us")
	p.setMedian("parser.parse_us", "parser.parse", "us")
	p.setMedian("exec.compile_us", "exec.compile", "us")
	p.setMedian("exec.run_ms", "exec.run", "ms")

	// Hits: the replayed ad-hoc requests are now cached on the in-process
	// twin; the workload's probe template is primed, then priced again.
	for i := range p.sample {
		rq := request{Kind: kindQuote, SQL: p.sample[i].SQL}
		for r := 0; r < 3; r++ {
			p.tr.timed("qirana.price_hit", 0, int64(i), func() { _, _ = inproc.priceInProcess(ctx, &rq) })
		}
	}
	p.setMedian("broker.hit_us", "qirana.price_hit", "us")
	codes := []string(nil)
	if p.w.spec.Dataset == "world" {
		codes = countryCodes(inproc.db)
	}
	r := rand.New(rand.NewSource(p.seed))
	var stmtReqs []request
	for i := 0; i < 16; i++ {
		rq := stmtRequest(p.w.probeTmpl, r, codes)
		if _, err := inproc.priceInProcess(ctx, &rq); err != nil {
			return fmt.Errorf("stmt probe %q: %w", rq.SQL, err)
		}
		stmtReqs = append(stmtReqs, rq)
	}
	for r := 0; r < 3; r++ {
		for i := range stmtReqs {
			p.tr.timed("qirana.stmt_price_hit", 0, int64(i), func() { _, _ = inproc.priceInProcess(ctx, &stmtReqs[i]) })
		}
	}
	p.setMedian("broker.stmt_hit_us", "qirana.stmt_price_hit", "us")
	return nil
}

// broker: cold prices and purchases on an unprimed durable twin, and the
// same cold prices from nproc concurrent callers on a second twin.
func (p *probeEnv) broker() error {
	ctx := context.Background()
	cold, err := p.build(buildOpts{durable: true, shards: p.w.spec.Shards})
	if err != nil {
		return err
	}
	defer cold.close()
	t0 := time.Now()
	for i, rq := range p.sample {
		p.tr.timed("qirana.price_cold", 0, int64(i), func() {
			_, err = cold.broker.Price(ctx, qirana.PriceRequest{SQLs: []string{rq.SQL}})
		})
		if err != nil {
			return fmt.Errorf("cold price %q: %w", rq.SQL, err)
		}
	}
	serial := time.Since(t0)
	p.setMedian("broker.cold_ms", "qirana.price_cold", "ms")

	before := fileSize(ledgerPath(cold))
	for i, rq := range p.sample {
		p.tr.timed("qirana.purchase", 0, int64(i), func() {
			_, err = cold.broker.Purchase(ctx, qirana.PurchaseRequest{Buyer: fmt.Sprintf("probe-%d", i%8), SQL: rq.SQL})
		})
		if err != nil {
			return fmt.Errorf("purchase %q: %w", rq.SQL, err)
		}
	}
	p.setMedian("broker.purchase_ms", "qirana.purchase", "ms")
	if !p.w.spec.Durable {
		p.set("durable.bytes_per_purchase", "B", float64(fileSize(ledgerPath(cold))-before)/float64(len(p.sample)), len(p.sample))
	} else {
		recs, _, err := durable.ScanLedgerFile(ledgerPath(p.live))
		if err != nil {
			return err
		}
		p.set("durable.bytes_per_purchase", "B", float64(fileSize(ledgerPath(p.live)))/float64(max(len(recs), 1)), len(recs))
	}

	par, err := p.build(buildOpts{shards: p.w.spec.Shards})
	if err != nil {
		return err
	}
	defer par.close()
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	t0 = time.Now()
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(p.sample); i = int(next.Add(1) - 1) {
				sql := p.sample[i].SQL
				p.tr.timed("qirana.price_cold_par", 0, int64(i), func() {
					if _, err := par.broker.Price(ctx, qirana.PriceRequest{SQLs: []string{sql}}); err != nil {
						firstErr.CompareAndSwap(nil, err)
					}
				})
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	p.set("broker.cold_concurrency_x", "x", float64(serial)/float64(time.Since(t0)), len(p.sample))
	return nil
}

// sweep: the fast-path checker, the serial engine with its decision
// split, and the history fold, all on the independent engine.
func (p *probeEnv) sweep() error {
	db := p.live.db
	var st pricing.Stats
	var bitmaps [][]bool
	for i, rq := range p.sample {
		q, err := exec.Compile(rq.SQL, db.Schema)
		if err != nil {
			return err
		}
		// Shapes outside the fast path (subqueries, LIMIT) have no checker.
		start := time.Now()
		if c, err := disagree.New(q, db); err == nil {
			if _, err := c.CheckBatch(p.eng.Set.Updates, nil); err != nil {
				return fmt.Errorf("check batch %q: %w", rq.SQL, err)
			}
			p.tr.add(p.tr.id(), 0, int64(i), "disagree.check", start, time.Now())
		}
		q, _ = exec.Compile(rq.SQL, db.Schema)
		p.tr.timed("pricing.price", 0, int64(i), func() { _, err = p.eng.Price(pricing.WeightedCoverage, q) })
		if err != nil {
			return fmt.Errorf("engine price %q: %w", rq.SQL, err)
		}
		s := p.eng.LastStats
		st.Static += s.Static
		st.Batched += s.Batched
		st.FullRuns += s.FullRuns
		st.Naive += s.Naive
		if len(bitmaps) < 16 {
			q, _ = exec.Compile(rq.SQL, db.Schema)
			dis, err := p.eng.Disagreements([]*exec.Query{q}, nil)
			if err != nil {
				return err
			}
			bitmaps = append(bitmaps, dis)
		}
	}
	p.setMedian("disagree.check_ms", "disagree.check", "ms")
	p.setMedian("pricing.price_ms", "pricing.price", "ms")
	total := float64(st.Static + st.Batched + st.FullRuns + st.Naive)
	p.set("disagree.static_share", "ratio", float64(st.Static)/total, int(total))
	p.set("disagree.batched_share", "ratio", float64(st.Batched+st.FullRuns)/total, int(total))
	p.set("disagree.naive_share", "ratio", float64(st.Naive)/total, int(total))

	for i, dis := range bitmaps {
		for r := 0; r < 20; r++ {
			h := pricing.NewHistory(len(dis))
			p.tr.timed("pricing.fold", 0, int64(i), func() { _, _ = p.eng.ChargeFromDisagreements(h, dis, p.sample[i].SQL) })
		}
	}
	p.setMedian("pricing.fold_us", "pricing.fold", "us")
	p.bitmaps = bitmaps
	return nil
}

// shards: Fanout.SweepBits against two loopback shards, Broker.SweepSlice
// on each range of two unserved shard brokers, and the fault counters.
func (p *probeEnv) shards() error {
	ctx := context.Background()
	if nproc() < 2 {
		p.res.NotMeasurable = append(p.res.NotMeasurable, "shard probes: 2 shards exceed nproc")
		return nil
	}
	src, err := p.build(buildOpts{})
	if err != nil {
		return err
	}
	defer src.close()
	opts := qirana.Options{SupportSetSize: p.w.spec.SupportSize, Seed: p.w.spec.DataSeed}
	served, err := shard.NewShardBrokers(src.broker, src.db, 2, opts)
	if err != nil {
		return err
	}
	cl, err := shard.StartLocal(served)
	if err != nil {
		return err
	}
	defer cl.Close()
	f, err := shard.Connect(ctx, cl.URLs, nil)
	if err != nil {
		return err
	}
	reg := obs.New()
	f.AttachObs(reg)
	slices, err := shard.NewShardBrokers(src.broker, src.db, 2, opts)
	if err != nil {
		return err
	}
	size := src.broker.SupportSetSize()
	ranges := shard.Assign(size, 2)
	var extra []float64
	n := min(len(p.sample), 16)
	for i := 0; i < n; i++ {
		sqls := []string{p.sample[i].SQL}
		fan := p.tr.timed("shard.fanout", 0, int64(i), func() {
			_, _, err = f.SweepBits(ctx, sqls, qirana.SweepSpec{SupportGen: src.broker.SupportGen()})
		})
		if err != nil {
			return fmt.Errorf("fan-out %q: %w", sqls[0], err)
		}
		var slowest time.Duration
		for k, rg := range ranges {
			d := p.tr.timed("shard.slice", 0, int64(i), func() {
				_, err = slices[k].SweepSlice(ctx, qirana.SweepSliceRequest{SQLs: sqls, Lo: rg.Lo, Hi: rg.Hi,
					SupportGen: src.broker.SupportGen(), SupportSum: src.broker.SupportChecksum()})
			})
			if err != nil {
				return fmt.Errorf("slice %q: %w", sqls[0], err)
			}
			slowest = max(slowest, d)
		}
		extra = append(extra, float64(fan-slowest))
	}
	p.setMedian("shard.fanout_ms", "shard.fanout", "ms")
	p.setMedian("shard.slice_ms", "shard.slice", "ms")
	p.set("shard.rpc_extra_ms", "ms", median(extra)/1e6, len(extra))
	if p.w.spec.Shards == 0 {
		// Single-node workloads read the fault counters from the probe's
		// own fan-out; durable-purchases read them from its live run.
		c := reg.Snapshot().Counters
		var rows uint64
		for _, b := range served {
			rows += b.Metrics().Counters["shard_rows_swept"]
		}
		setClusterCounters(p.pl, counters{hedges: c["router_hedges"], retries: c["router_retries"],
			rpcs: c["router_fanout_rpcs"], rows: rows}, float64(n))
	}
	return nil
}

// ledger: Ledger.Append and Ledger.Sync on a scratch ledger, with the
// run's record sizes (full-width disagreement bitmaps, the run's SQL).
func (p *probeEnv) ledger() error {
	path := filepath.Join(outRoot, fmt.Sprintf("scratch-ledger-%d.wal", os.Getpid()))
	os.Remove(path)
	defer os.Remove(path)
	l, _, _, err := durable.OpenLedger(path, obs.New())
	if err != nil {
		return err
	}
	defer l.Close()
	for i, rq := range p.sample {
		dis := p.bitmaps[i%len(p.bitmaps)]
		rec := durable.Record{Buyer: fmt.Sprintf("probe-%d", i%8), SQL: rq.SQL, Gross: 0.1, Net: 0.1, Dis: durable.PackBits(dis)}
		p.tr.timed("durable.append", 0, int64(i), func() { _, err = l.Append(rec) })
		if err != nil {
			return err
		}
		p.tr.timed("durable.sync", 0, int64(i), func() { err = l.Sync() })
		if err != nil {
			return err
		}
	}
	p.setMedian("durable.append_us", "durable.append", "us")
	p.setMedian("durable.sync_us", "durable.sync", "us")
	return nil
}

// setup: support-set generation twice more (the correctness check made
// the first span) and dataset generation from the setup spans.
func (p *probeEnv) setup() error {
	for i := 0; i < 2; i++ {
		var err error
		p.tr.timed("support.generate", 0, 0, func() {
			_, err = support.GenerateNeighborhood(p.live.db, support.Config{Size: p.w.spec.SupportSize, SwapFraction: 0.5, Seed: p.w.spec.DataSeed})
		})
		if err != nil {
			return err
		}
	}
	p.setMedian("support.generate_s", "support.generate", "s")
	p.setMedian("datagen.generate_s", "datagen.generate", "s")
	return nil
}

// counters are the fault and work counters of a fan-out and its shards.
type counters struct{ hedges, retries, rpcs, rows uint64 }

func (c counters) minus(o counters) counters {
	return counters{c.hedges - o.hedges, c.retries - o.retries, c.rpcs - o.rpcs, c.rows - o.rows}
}

func clusterCounters(st *stack) counters {
	if st.cluster == nil {
		return counters{}
	}
	c := st.broker.Metrics().Counters
	out := counters{hedges: c["router_hedges"], retries: c["router_retries"], rpcs: c["router_fanout_rpcs"]}
	for _, b := range st.cluster.Brokers {
		out.rows += b.Metrics().Counters["shard_rows_swept"]
	}
	return out
}

func setClusterCounters(pl map[string]metric, c counters, quotes float64) {
	rpcs := float64(max(c.rpcs, 1))
	pl["shard.hedges_per_rpc"] = metric{Value: float64(c.hedges) / rpcs, Unit: "ratio", N: int(c.rpcs)}
	pl["shard.retries_per_rpc"] = metric{Value: float64(c.retries) / rpcs, Unit: "ratio", N: int(c.rpcs)}
	pl["shard.rows_swept_per_quote"] = metric{Value: float64(c.rows) / quotes, Unit: "count", N: int(quotes)}
}
