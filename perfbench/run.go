package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qirana"
	"qirana/internal/sqlengine/exec"
)

// A run builds the whole stack at least minSetups times and until the
// builds have taken setupBudget in all, so that a cheap set-up is
// measured over enough builds that a burst of interference from outside
// the process moves few of them. setup_s is the median; the last build
// serves the run.
const (
	minSetups   = 7
	setupBudget = 3 * time.Second
)

// lateLimit flags a run whose open-loop generator sent its p99 request
// later than this after it was due.
const lateLimit = 10 * time.Millisecond

func runBenchmark(name string, seed int64, seconds float64, traced bool) (*result, error) {
	specs, err := loadSpecs()
	if err != nil {
		return nil, err
	}
	w, err := workloadByName(specs, name)
	if err != nil {
		return nil, err
	}
	if w.spec.Shards > nproc() {
		return nil, fmt.Errorf("%s needs %d shards but the host has %d CPUs: %w", name, w.spec.Shards, nproc(), errNotMeasurable)
	}
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Host: hostInfo(),
		Inputs: w.spec, EndToEnd: map[string]metric{}}
	if w.spec.Durable {
		res.LedgerFlush = specs.LedgerFlush
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		res.PerLayer = map[string]metric{}
	}

	// Set up several times; the last stack serves the run and the heap
	// sampler that started with it stays on. setup_s is the median process
	// CPU time of a build, which leaves out the time the process waits for
	// a CPU that the host gives to others; the median wall-clock time is
	// setup_wall_s, reported but not gated.
	steal0 := stealTicks()
	defer func() {
		if busy := stealTicks().minus(steal0); busy.total > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("host CPU steal during the run: %.1f%%", 100*float64(busy.steal)/float64(busy.total)))
		}
	}()
	var st *stack
	var heap *heapSampler
	var setupS, setupWallS []float64
	var spent time.Duration
	for len(setupS) < minSetups || spent < setupBudget {
		if st != nil {
			st.close()
			heap.finish()
			runtime.GC()
		}
		heap = startHeapSampler(20 * time.Millisecond)
		root := tr.id()
		t0, cpu0 := time.Now(), cpuTime()
		var d time.Duration
		st, d, err = build(w, seed, outRoot, buildOpts{serve: true, durable: w.spec.Durable, shards: w.spec.Shards, prime: true, tr: tr, parent: root})
		if err != nil {
			heap.finish()
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr.add(root, 0, 0, "setup", t0, time.Now())
		setupS = append(setupS, (cpuTime() - cpu0).Seconds())
		setupWallS = append(setupWallS, d.Seconds())
		spent += d
	}
	defer st.close()
	res.EndToEnd["setup_s"] = metric{Value: median(setupS), Unit: "s", N: len(setupS)}
	res.EndToEnd["setup_wall_s"] = metric{Value: median(setupWallS), Unit: "s", N: len(setupWallS)}

	// Half the run is the open loop, half the closed loop (which a traced
	// run skips). Requests are generated from the seed before timing.
	openDur := time.Duration(seconds / 2 * float64(time.Second))
	closedDur := openDur
	if traced {
		closedDur = 0
	}
	rate := w.spec.OfferedRPS
	openReqs := newStream(st, int(rate*openDur.Seconds()*1.3)+64)
	var closedReqs *stream
	if closedDur > 0 {
		closedReqs = newStream(st, min(200000, max(2000, int(rate*2*closedDur.Seconds()*3))))
	}

	cache0 := st.broker.QuoteCacheStats()
	counters0 := clusterCounters(st)
	open := openLoop(st.client, openReqs, rate, openDur, seed, nproc(), tr)
	cache1 := st.broker.QuoteCacheStats()
	counters1 := clusterCounters(st)
	if looked := cache1.Hits + cache1.Misses + cache1.CoalescedWaits - cache0.Hits - cache0.Misses - cache0.CoalescedWaits; looked > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("open loop quote-cache hit ratio %.3f", float64(cache1.Hits-cache0.Hits)/float64(looked)))
	}
	var closed closedResult
	if closedDur > 0 {
		cpu0 := cpuTime()
		closed = closedLoop(st.client, closedReqs, nproc(), closedDur)
		// CPU per request served at full load is the capacity cost per
		// core. It moves less than wall-clock figures do when the host's
		// hypervisor gives this machine's CPUs to others. It is the whole
		// process's CPU, so it includes the load generator's HTTP client
		// and response decoding as well as the server.
		served := closed.attempted - closed.failed
		res.EndToEnd["cpu_us_per_request"] = metric{Value: float64(cpuTime()-cpu0) / 1e3 / float64(served), Unit: "us", N: served}
		res.EndToEnd["peak_rps"] = metric{Value: closed.completedPerSec(), Unit: "1/s", N: closed.attempted}
		if closed.attempted > len(closedReqs.seq) {
			res.Notes = append(res.Notes, fmt.Sprintf("closed loop wrapped its %d pre-generated requests (%d sent)", len(closedReqs.seq), closed.attempted))
		}
	}
	res.EndToEnd["peak_heap_mb"] = metric{Value: heap.finish(), Unit: "MB"}

	// Latency: quotes and purchases from the open loop, failures as +Inf.
	var quoteLat, buyLat, tracedLat, untracedLat []outcome
	byShape := map[string][]float64{}
	var served []servedPrice
	var buyers []string
	ackedBuys := 0
	seenBuyer := map[string]bool{}
	for i, o := range open.outcomes {
		rq := openReqs.at(i)
		res.Attempted++
		if !o.ok {
			res.Failed++
		}
		if rq.Kind == kindAsk {
			buyLat = append(buyLat, o)
			continue
		}
		quoteLat = append(quoteLat, o)
		byShape[rq.Shape] = append(byShape[rq.Shape], o.latMS())
		if o.traced {
			tracedLat = append(tracedLat, o)
		} else {
			untracedLat = append(untracedLat, o)
		}
	}
	record := func(rq *request, o outcome) {
		if !o.ok {
			return
		}
		if rq.Kind == kindAsk {
			if !seenBuyer[rq.Buyer] {
				seenBuyer[rq.Buyer] = true
				buyers = append(buyers, rq.Buyer)
			}
			return
		}
		served = append(served, servedPrice{sql: rq.SQL, price: o.served})
	}
	for i, o := range open.outcomes {
		record(openReqs.at(i), o)
		if o.ok && openReqs.at(i).Kind == kindAsk {
			ackedBuys++
		}
	}
	res.Attempted += closed.attempted
	res.Failed += closed.failed
	ackedBuys += closed.okAsks
	for _, k := range closed.kept {
		record(closedReqs.at(k.pos), k.outcome)
	}
	res.EndToEnd["quote_p50_ms"] = metric{Value: windowed(quoteLat, 0.5, openDur), Unit: "ms", N: len(quoteLat)}
	res.EndToEnd["quote_p99_ms"] = metric{Value: windowed(quoteLat, 0.99, openDur), Unit: "ms", N: len(quoteLat)}
	if len(buyLat) > 0 {
		res.EndToEnd["purchase_p50_ms"] = metric{Value: windowed(buyLat, 0.5, openDur), Unit: "ms", N: len(buyLat)}
		res.EndToEnd["purchase_p99_ms"] = metric{Value: windowed(buyLat, 0.99, openDur), Unit: "ms", N: len(buyLat)}
	}
	res.ShapeP50 = map[string]metric{}
	for shape, xs := range byShape {
		res.ShapeP50[shape] = metric{Value: median(xs), Unit: "ms", N: len(xs)}
	}
	late := quantile(open.late, 0.99) / 1e6
	res.Notes = append(res.Notes, fmt.Sprintf("open loop: %d requests at %.0f/s, generator late p50 %.3f ms p99 %.3f ms",
		len(open.outcomes), rate, quantile(open.late, 0.5)/1e6, late))
	res.LoadgenBehind = late > float64(lateLimit)/1e6 || open.unsent > 0
	if open.unsent > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d open-loop requests were never sent before the hard stop", open.unsent))
	}

	// Correctness: served prices against an independent engine, and the
	// ledger against the broker's balances.
	eng, err := independentEngine(st, w, tr)
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	} else {
		checked, problems := checkPrices(eng, st, served, checkSample(w), seed)
		res.Problems = append(res.Problems, problems...)
		if checked < checkSample(w) {
			res.Problems = append(res.Problems, fmt.Sprintf("only %d distinct served prices to check, want %d", checked, checkSample(w)))
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d served prices re-priced by an independent engine", checked))
	}
	if w.spec.Durable {
		n, total, problems := checkLedger(st, buyers, ackedBuys)
		res.Problems = append(res.Problems, problems...)
		res.Notes = append(res.Notes, fmt.Sprintf("ledger: %d records, total %.6f", n, total))
	}
	// A check that fails counts as a failed request; a timed request that
	// failed fails the run, so that refusing work never reads as a gain.
	res.Failed += len(res.Problems)
	if timedFailed := res.Failed - len(res.Problems); timedFailed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d timed requests failed", timedFailed, res.Attempted))
	}
	res.Correct = len(res.Problems) == 0
	res.EndToEnd["error_ratio"] = metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio", N: res.Attempted}

	if w.name == "cold-quotes" && !traced {
		ratio, n, err := yardstick(st)
		if err != nil {
			return nil, err
		}
		res.EndToEnd["pricing_exec_ratio"] = metric{Value: ratio, Unit: "x", N: n}
	}

	if !traced {
		return res, nil
	}
	pl := res.PerLayer
	pl["loadgen.late_p99_ms"] = metric{Value: late, Unit: "ms", N: len(open.late)}
	base := windowed(untracedLat, 0.5, openDur)
	pl["trace.overhead_pct"] = metric{Value: 100 * (windowed(tracedLat, 0.5, openDur) - base) / base, Unit: "%", N: len(tracedLat)}
	requests := float64(len(open.outcomes))
	dh, dm, dc := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses, cache1.CoalescedWaits-cache0.CoalescedWaits
	pl["quotecache.hit_ratio"] = metric{Value: float64(dh) / math.Max(1, float64(dh+dm+dc)), Unit: "ratio", N: int(dh + dm + dc)}
	pl["quotecache.evictions_per_1k"] = metric{Value: 1000 * float64(cache1.Evictions-cache0.Evictions) / requests, Unit: "count", N: int(requests)}
	pl["quotecache.coalesced_per_1k"] = metric{Value: 1000 * float64(dc) / requests, Unit: "count", N: int(requests)}
	if st.cluster != nil {
		quotes := float64(len(quoteLat))
		setClusterCounters(pl, counters1.minus(counters0), quotes)
	}
	if err := probe(&probeEnv{w: w, seed: seed, live: st, tr: tr, eng: eng, reqs: openReqs.distinct, pl: pl, res: res}); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.SelfTimes = tr.selfTimes()
	if s, ok := res.SelfTimes["httpapi.serve"]; ok {
		pl["httpapi.serve_self_us"] = metric{Value: s.MedianSelfUS, Unit: "us", N: s.Count}
	}
	if s, ok := res.SelfTimes["loadgen.transport"]; ok {
		pl["loadgen.transport_self_us"] = metric{Value: s.MedianSelfUS, Unit: "us", N: s.Count}
	}
	spanDir := filepath.Join(outRoot, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// cpuTicks are the host's cumulative CPU ticks from /proc/stat: steal is
// time the hypervisor gave this machine's CPUs to someone else, which
// slows every figure of a run without any change to the program.
type cpuTicks struct{ steal, total uint64 }

func (c cpuTicks) minus(o cpuTicks) cpuTicks { return cpuTicks{c.steal - o.steal, c.total - o.total} }

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func stealTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// windows is how many equal slices of a phase a run's figures are taken
// over: each figure is the median of the per-window figures.
const windows = 5

// windowed is the q-quantile of the latencies (ms, failures +Inf) taken
// in each window of the phase by due time, median over windows. Windows
// merge until each holds enough samples for ten to lie beyond q, so a
// sparse phase falls back to the pooled quantile.
func windowed(outs []outcome, q float64, phase time.Duration) float64 {
	w := windows
	for w > 1 && float64(len(outs))/float64(w)*(1-q) < 10 {
		w--
	}
	width := phase/time.Duration(w) + 1
	per := make([][]float64, w)
	for _, o := range outs {
		i := min(int(o.at/width), w-1)
		per[i] = append(per[i], o.latMS())
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// checkSample is how many distinct served prices each run re-prices.
func checkSample(w *workload) int {
	if w.name == "cold-quotes" {
		return 12
	}
	return 32
}

// yardstick is the paper's pricing-vs-execution ratio: for each cold
// shape, the median in-process cold price time of fresh instances over
// the median exec.Query.Run time of the same instances (freshly
// compiled, so the execution cache is cold too); geometric mean over
// shapes.
func yardstick(st *stack) (float64, int, error) {
	const perShape = 5
	ctx := context.Background()
	var ratios []float64
	for _, shape := range coldShapes {
		var priceT, execT []float64
		for k := 0; k < perShape; k++ {
			rq := st.src.fresh(shape.name)
			t0 := time.Now()
			if _, err := st.broker.Price(ctx, qirana.PriceRequest{SQLs: []string{rq.SQL}}); err != nil {
				return 0, 0, fmt.Errorf("yardstick %s: %w", shape.name, err)
			}
			priceT = append(priceT, float64(time.Since(t0)))
			q, err := exec.Compile(rq.SQL, st.db.Schema)
			if err != nil {
				return 0, 0, err
			}
			t0 = time.Now()
			if _, err := q.Run(st.db); err != nil {
				return 0, 0, err
			}
			execT = append(execT, float64(time.Since(t0)))
		}
		ratios = append(ratios, median(priceT)/median(execT))
	}
	return geomean(ratios), len(coldShapes) * perShape, nil
}
