// Package pricing implements QIRANA's pricing framework (paper §2, §3):
// the four arbitrage-aware pricing functions over a support set of
// possible databases, query bundles, history-aware pricing, and the
// orchestration of the §4 disagreement fast path.
//
// Prices are computed from how the support set S reacts to the query
// output: an element D_i ∈ S is in the conflict set of Q when
// Q(D_i) ≠ Q(D). The weighted coverage and uniform entropy gain functions
// need only this disagreement bit (and can therefore use the optimized
// checker); the Shannon and Tsallis entropy functions need the full
// partition of S by output and always execute the query per element.
package pricing

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"qirana/internal/disagree"
	"qirana/internal/obs"
	"qirana/internal/pool"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// Func selects a pricing function (paper §2.3, Table 1).
type Func int

// The four pricing functions of the paper.
const (
	// WeightedCoverage is p_wc (eq. 1): the weighted sum of disagreeing
	// support elements. Strongly information-arbitrage-free and bundle
	// arbitrage-free; the recommended default.
	WeightedCoverage Func = iota
	// UniformEntropyGain is p_ueg (eq. 2): log |C_Q(E) ∩ S| / log |S|.
	// Strongly information-arbitrage-free but exhibits bundle arbitrage.
	UniformEntropyGain
	// ShannonEntropy is p_H (eq. 3): the entropy of the partition of S
	// induced by the query output. Weakly arbitrage-free, bundle-free.
	ShannonEntropy
	// QEntropy is p_T (eq. 4): the Tsallis entropy (q = 2) of the same
	// partition. Weakly arbitrage-free, bundle-free.
	QEntropy
)

// String names the pricing function as in the paper's figures.
func (f Func) String() string {
	switch f {
	case WeightedCoverage:
		return "coverage"
	case UniformEntropyGain:
		return "uniform info gain"
	case ShannonEntropy:
		return "shannon entropy"
	case QEntropy:
		return "q-entropy"
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// AllFuncs lists the pricing functions in paper order.
var AllFuncs = []Func{WeightedCoverage, QEntropy, ShannonEntropy, UniformEntropyGain}

// Options tunes how the engine evaluates disagreements.
type Options struct {
	// FastPath enables the §4 disagreement checker for eligible queries
	// priced with coverage-style functions.
	FastPath bool
	// Batching enables the §4.2 batched database checks (requires FastPath).
	Batching bool
	// InstanceReduction enables the Appendix A instance-reduction
	// optimization on the naive path for eligible SPJ queries.
	InstanceReduction bool
	// Workers > 1 parallelizes the whole engine across that many
	// goroutines (clamped to GOMAXPROCS): the naive path's per-element
	// re-executions, the Appendix A reduced checks, and the §4.2 fast
	// path's classification, per-relation tagged batches and residual full
	// runs. All workers share one immutable database and evaluate support
	// elements through copy-on-write overlays; prices and Stats are
	// bit-identical to the serial run. An engineering extension beyond the
	// paper.
	Workers int
	// DisableDeltaTiers builds legacy (untiered) checkers: DISTINCT and
	// self-join queries fall back to naive pricing and MIN/MAX removals
	// re-run the full query instead of resolving against materialized
	// candidate views. Exists for A/B measurement of the incremental-view
	// tier machinery; leave false in production.
	DisableDeltaTiers bool
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options {
	return Options{FastPath: true, Batching: true, InstanceReduction: true}
}

// Stats reports how the last pricing call decided each (element, query)
// pair; experiments use it to show the effect of each optimization.
type Stats struct {
	Static   int // decided without any database access
	Batched  int // decided by a batched tagged query
	FullRuns int // decided by full query re-execution in the fast path
	Naive    int // decided by the naive per-element re-execution
	// DeltaFull / DeltaPartial split the fast path's residual database
	// checks by delta tier: decided by first-order delta terms alone vs.
	// additionally consulting a materialized intermediate (multiplicity or
	// candidate view) or the higher-order self-join expansion. Together
	// with FullRuns they partition the residual checks.
	DeltaFull, DeltaPartial int
}

// Engine prices query bundles over one database and support set.
type Engine struct {
	DB      *storage.Database
	Set     *support.Set
	Total   float64
	Weights []float64
	Opts    Options

	checkers    map[*exec.Query]*disagree.Checker
	uncheckable map[*exec.Query]bool
	LastStats   Stats

	// Obs, when non-nil, receives per-stage latency observations from the
	// engine and its checkers (stage_checker_build, stage_classify,
	// stage_tagged_batch, stage_delta, stage_residual, stage_entropy).
	// Set by the broker; nil is a no-op.
	Obs *obs.Registry

	// weightsEpoch counts weight-vector installations. External caches
	// (the broker's quote cache) embed it in their keys so a SetWeights
	// call atomically orphans every price computed under the old vector.
	weightsEpoch uint64
}

// NewEngine builds an engine with uniform weights w_i = Total/|S| (the
// default of §3.3 when the seller provides only the full-database price).
func NewEngine(db *storage.Database, set *support.Set, total float64) *Engine {
	e := &Engine{DB: db, Set: set, Total: total, Opts: DefaultOptions(),
		checkers:    make(map[*exec.Query]*disagree.Checker),
		uncheckable: make(map[*exec.Query]bool)}
	e.Weights = make([]float64, set.Size())
	for i := range e.Weights {
		e.Weights[i] = total / float64(set.Size())
	}
	return e
}

// SetWeights installs seller-customized weights (from the maxent module);
// they must sum to the total price.
func (e *Engine) SetWeights(w []float64) error {
	if len(w) != e.Set.Size() {
		return fmt.Errorf("got %d weights for support set of size %d", len(w), e.Set.Size())
	}
	sum := 0.0
	for _, x := range w {
		if x < 0 {
			return fmt.Errorf("negative weight %g", x)
		}
		sum += x
	}
	if math.Abs(sum-e.Total) > 1e-6*(1+e.Total) {
		return fmt.Errorf("weights sum to %g, want total price %g", sum, e.Total)
	}
	e.Weights = w
	e.weightsEpoch++
	return nil
}

// WeightsEpoch returns the number of successful SetWeights calls. Cache
// keys derived from prices must include it: two calls with equal SQL but
// different epochs may price differently.
func (e *Engine) WeightsEpoch() uint64 { return e.weightsEpoch }

// RestoreWeights reinstalls a persisted weight vector together with its
// epoch counter (the broker's crash-recovery path). Validation matches
// SetWeights, but the epoch is restored instead of bumped so ledger
// records appended after the snapshot still match the recovered state.
func (e *Engine) RestoreWeights(w []float64, epoch uint64) error {
	if err := e.SetWeights(w); err != nil {
		return err
	}
	e.weightsEpoch = epoch
	return nil
}

// maxCheckers bounds the per-query checker map: a long-lived broker fed a
// stream of unique queries would otherwise grow it without limit. Beyond
// the bound the maps reset wholesale — checkers are cheap to rebuild and
// correctness never depends on them being cached.
const maxCheckers = 256

// checker returns (and caches) the disagreement checker for q, or nil when
// q is outside the fast path.
func (e *Engine) checker(q *exec.Query) *disagree.Checker {
	if !e.Opts.FastPath || e.Set.Updates == nil {
		return nil
	}
	if e.uncheckable[q] {
		return nil
	}
	if c, ok := e.checkers[q]; ok {
		return c
	}
	if len(e.checkers) >= maxCheckers || len(e.uncheckable) >= maxCheckers {
		e.InvalidateCache()
	}
	build := disagree.New
	if e.Opts.DisableDeltaTiers {
		build = disagree.NewUntiered
	}
	stop := e.Obs.Timer("stage_checker_build")
	c, err := build(q, e.DB)
	stop()
	if err != nil {
		e.uncheckable[q] = true
		return nil
	}
	c.Obs = e.Obs
	e.checkers[q] = c
	return c
}

// InvalidateCache drops cached per-query state; call after mutating the
// underlying database outside the pricing engine.
func (e *Engine) InvalidateCache() {
	e.checkers = make(map[*exec.Query]*disagree.Checker)
	e.uncheckable = make(map[*exec.Query]bool)
}

// SweepSpec says what one sweep over the support set computes: the
// shape of the output, its kind, and which elements it visits. Exact,
// history-aware, sampled and sharded sweeps are all the same sweep with
// a different live mask.
type SweepSpec struct {
	// Bundle sweeps qs as ONE bundle: one output, in which an element
	// disagrees when some query of the bundle tells it apart from D.
	// False sweeps each query independently: one output per query, still
	// in one shared pass over the support set.
	Bundle bool
	// Hashes returns per-element output hashes (the partition the entropy
	// pricing functions need) instead of disagreement bits.
	Hashes bool
	// Live restricts the sweep to the elements with Live[i] set (nil =
	// all). Masked elements are never evaluated, their positions in the
	// output vectors stay zero, and they count toward no Stats.
	Live []bool
}

// SweepResult is one sweep's output, indexed by output (one for a
// bundle, one per query otherwise). Every per-element decision is
// independent of the mask, so the vectors and Stats of disjoint masks
// covering the support set OR / overlay / add up exactly to the
// unmasked sweep's — the invariant sampled and sharded pricing rely on.
type SweepResult struct {
	// Bits holds the full-length disagreement bitmaps (nil for Hashes).
	Bits [][]bool
	// Hashes holds the full-length per-element output hashes and Bases
	// the hash of D's own output (both nil for bits).
	Hashes [][]uint64
	Bases  []uint64
	// Stats is how each output's elements were decided.
	Stats []Stats
	// Live marks the elements the vectors cover — the mask the sweep ran
	// under (nil = every element).
	Live []bool
}

// Valid reports whether fn is one of the four pricing functions.
func (fn Func) Valid() bool { return fn >= WeightedCoverage && fn <= QEntropy }

// UsesHashes reports whether fn prices the partition of S by output hash
// (the entropy functions) rather than the disagreement set.
func (fn Func) UsesHashes() bool { return fn == ShannonEntropy || fn == QEntropy }

// Add accumulates o into s; Stats of disjoint sweeps sum exactly.
func (s *Stats) Add(o Stats) {
	s.Static += o.Static
	s.Batched += o.Batched
	s.FullRuns += o.FullRuns
	s.Naive += o.Naive
	s.DeltaFull += o.DeltaFull
	s.DeltaPartial += o.DeltaPartial
}

// Sweep is the engine's one pass over the support set (Algorithm 1 with
// the §4.2 batched checks inside it). Every evaluation path — batched
// checker, per-element checker walk, Appendix A reduction, naive and
// entropy re-execution — polls ctx between elements and aborts with
// ctx.Err(); a cancelled sweep leaves no partial state behind.
// LastStats is left holding the sum of the returned Stats.
func (e *Engine) Sweep(ctx context.Context, qs []*exec.Query, spec SweepSpec) (SweepResult, error) {
	r := SweepResult{Live: spec.Live}
	var err error
	switch {
	case spec.Hashes:
		r.Hashes, r.Bases, r.Stats, err = e.sweepHashes(ctx, qs, spec)
	case spec.Bundle:
		var dis []bool
		var st Stats
		dis, st, err = e.sweepBundleBits(ctx, qs, spec.Live)
		r.Bits, r.Stats = [][]bool{dis}, []Stats{st}
	default:
		r.Bits, r.Stats, err = e.sweepBits(ctx, qs, spec.Live)
	}
	if err != nil {
		return SweepResult{}, err
	}
	e.LastStats = Stats{}
	for _, st := range r.Stats {
		e.LastStats.Add(st)
	}
	return r, nil
}

// Disagreements computes, for each live support element, whether it
// disagrees with D on the bundle (i.e. some query of the bundle tells the
// two databases apart). Elements with live[i]=false are skipped (history-
// aware pricing); live may be nil.
func (e *Engine) Disagreements(qs []*exec.Query, live []bool) ([]bool, error) {
	r, err := e.Sweep(context.Background(), qs, SweepSpec{Bundle: true, Live: live})
	if err != nil {
		return nil, err
	}
	return r.Bits[0], nil
}

// OutputHashes runs the bundle on D and every support element, returning
// the combined output hash per element plus the hash for D itself. The
// entropy pricing functions partition S by these hashes.
func (e *Engine) OutputHashes(qs []*exec.Query) (elems []uint64, base uint64, err error) {
	r, err := e.Sweep(context.Background(), qs, SweepSpec{Bundle: true, Hashes: true})
	if err != nil {
		return nil, 0, err
	}
	return r.Hashes[0], r.Bases[0], nil
}

// sweepBundleBits prices the bundle query by query: each query sweeps
// only the live elements no earlier query already told apart from D.
func (e *Engine) sweepBundleBits(ctx context.Context, qs []*exec.Query, live []bool) ([]bool, Stats, error) {
	out := make([]bool, e.Set.Size())
	var st Stats
	for j := range qs {
		mask := make([]bool, len(out))
		any := false
		for i := range mask {
			mask[i] = (live == nil || live[i]) && !out[i]
			any = any || mask[i]
		}
		if !any {
			break
		}
		res, stats, err := e.sweepBits(ctx, qs[j:j+1], mask)
		if err != nil {
			return nil, Stats{}, err
		}
		for i, d := range res[0] {
			out[i] = out[i] || d
		}
		st.Add(stats[0])
	}
	return out, st, nil
}

// sweepBits computes the disagreement bitmap of every query in qs — k
// INDEPENDENT queries — in one shared pass. Batched fast-path queries go
// through one disagree.Sweep (one classification pass, one u⁺/u⁻
// materialization, one merged job pool); unbatched checkers walk the
// elements one check at a time (the "no batching" mode of Figure 5);
// queries outside the fast path take the Appendix A reduction when
// eligible, and the rest share one overlay pass that applies each element
// once and runs all of them. Per query, the bitmap and Stats are
// bit-identical to a one-query call.
func (e *Engine) sweepBits(ctx context.Context, qs []*exec.Query, live []bool) ([][]bool, []Stats, error) {
	out := make([][]bool, len(qs))
	stats := make([]Stats, len(qs))
	var batched []*disagree.Checker
	var batchedIdx, naiveIdx []int
	for j, q := range qs {
		out[j] = make([]bool, e.Set.Size())
		c := e.checker(q)
		switch {
		case c != nil && e.Opts.Batching:
			c.Stats = disagree.CheckStats{}
			c.Workers = e.parallelWorkers()
			batched = append(batched, c)
			batchedIdx = append(batchedIdx, j)
		case c != nil:
			c.Stats = disagree.CheckStats{}
			for i, u := range e.Set.Updates {
				if live != nil && !live[i] {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
				d, err := c.Check(u)
				if err != nil {
					return nil, nil, err
				}
				out[j][i] = d
			}
			stats[j] = e.checkerStats(c)
		default:
			if e.Opts.InstanceReduction && e.Set.Updates != nil {
				ok, n, err := e.reducedDisagree(ctx, q, live, out[j])
				if err != nil {
					return nil, nil, err
				}
				if ok {
					stats[j] = Stats{Naive: n}
					continue
				}
			}
			naiveIdx = append(naiveIdx, j)
		}
	}
	if len(batched) > 0 {
		res, err := disagree.Sweep(ctx, batched, e.Set.Updates, live)
		if err != nil {
			return nil, nil, err
		}
		for k, j := range batchedIdx {
			out[j] = res[k]
			stats[j] = e.checkerStats(batched[k])
		}
	}
	if len(naiveIdx) > 0 {
		if err := e.naiveDisagree(ctx, qs, naiveIdx, live, out); err != nil {
			return nil, nil, err
		}
		n := countLive(live, e.Set.Size())
		for _, j := range naiveIdx {
			stats[j] = Stats{Naive: n}
		}
	}
	return out, stats, nil
}

// checkerStats converts one checker sweep's counters into engine Stats
// and exports its per-tier residual-check counts to the observability
// registry (nil-safe); the counters feed the broker's /metrics endpoint.
func (e *Engine) checkerStats(c *disagree.Checker) Stats {
	s := &c.Stats
	e.Obs.Add("checker_delta_full", uint64(s.DeltaFullRuns))
	e.Obs.Add("checker_delta_partial", uint64(s.DeltaPartialRuns))
	e.Obs.Add("checker_delta_fallback", uint64(s.FullRuns))
	return Stats{Static: s.Static, Batched: s.Batched, FullRuns: s.FullRuns,
		DeltaFull: s.DeltaFullRuns, DeltaPartial: s.DeltaPartialRuns}
}

// countLive is the number of elements a mask selects (nil = all n).
func countLive(live []bool, n int) int {
	if live == nil {
		return n
	}
	c := 0
	for _, ok := range live {
		if ok {
			c++
		}
	}
	return c
}

// naiveDisagree is Algorithm 1's loop for the queries qs[idx]: run each
// on every live neighboring instance and compare output hashes against
// its own baseline, writing out[j]. Elements are evaluated through
// copy-on-write overlays over the shared (never mutated) database, one
// overlay per worker, each element applied once for all the queries;
// with one worker they run inline in index order.
func (e *Engine) naiveDisagree(ctx context.Context, qs []*exec.Query, idx []int, live []bool, out [][]bool) error {
	bases := make([]uint64, len(idx))
	for x, j := range idx {
		base, err := qs[j].Run(e.DB)
		if err != nil {
			return err
		}
		bases[x] = base.Hash()
	}
	return e.parallelApplyCtx(ctx, live, func(o *storage.Overlay, i int) error {
		el := e.Set.Elements[i]
		el.ApplyOverlay(o)
		defer el.UndoOverlay(o)
		for x, j := range idx {
			res, err := qs[j].RunOverride(e.DB, o.Overrides())
			if err != nil {
				return err
			}
			if res.Hash() != bases[x] {
				out[j][i] = true // distinct index per element: no contention
			}
		}
		return nil
	})
}

// reducedRel is one relation's Appendix A reduction: the touched base rows
// (aliased, never written), the position of each base row index inside the
// reduced slice, and the baseline output hash over the reduced instance.
type reducedRel struct {
	rows     [][]value.Value
	pos      map[int]int
	baseline uint64
}

// reducedDisagree implements the instance-reduction optimization of
// Appendix A (Lemma A.3): for SPJ queries, an update on relation R changes
// Q(D) iff it changes Q(D with R reduced to the rows the support set
// touches). It returns ok=false when the query is ineligible, else the
// number of elements it evaluated.
//
// Each element's check substitutes its updated tuples into a private copy
// of the (tiny) reduced relation, so the base database stays read-only and
// the per-element checks parallelize across workers.
func (e *Engine) reducedDisagree(ctx context.Context, q *exec.Query, live, out []bool) (bool, int, error) {
	s, err := plan.Extract(q.A)
	if err != nil || s.IsAgg || s.Distinct {
		// The reduction lemma is a multiset-locality argument: DISTINCT
		// breaks it because an untouched duplicate outside the reduced
		// instance can absorb a removal that looks visible inside it.
		return false, 0, nil
	}
	inQuery := make(map[string]bool)
	for _, rel := range s.RelOfSource {
		rel = ast.LowerName(rel)
		if inQuery[rel] {
			// Self-join: reducing the relation shrinks BOTH occurrences, so
			// an update loses its untouched join partners — ineligible.
			return false, 0, nil
		}
		inQuery[rel] = true
	}
	// Collect the touched row set per relation and the elements to check.
	touched := make(map[string]map[int]bool)
	var idxs []int
	for i, u := range e.Set.Updates {
		if live != nil && !live[i] {
			continue
		}
		rel := ast.LowerName(u.Rel)
		if !inQuery[rel] {
			continue // cannot disagree
		}
		idxs = append(idxs, i)
		m := touched[rel]
		if m == nil {
			m = make(map[int]bool)
			touched[rel] = m
		}
		m[u.Row1] = true
		if u.Swap {
			m[u.Row2] = true
		}
	}
	reduced := make(map[string]*reducedRel)
	for rel, rows := range touched {
		t := e.DB.Table(rel)
		rr := &reducedRel{pos: make(map[int]int, len(rows))}
		for ri := range t.Rows { // deterministic order
			if rows[ri] {
				rr.pos[ri] = len(rr.rows)
				rr.rows = append(rr.rows, t.Rows[ri])
			}
		}
		res, err := q.RunOverride(e.DB, exec.Overrides{rel: rr.rows})
		if err != nil {
			return true, 0, err
		}
		rr.baseline = res.Hash()
		reduced[rel] = rr
	}
	if len(idxs) == 0 {
		return true, 0, nil
	}
	workers := pool.Clamp(e.parallelWorkers(), len(idxs))
	scratch := make([]map[string][][]value.Value, workers)
	err = pool.RunWorkersCtx(ctx, workers, len(idxs), func(w, k int) error {
		i := idxs[k]
		u := e.Set.Updates[i]
		rel := ast.LowerName(u.Rel)
		rr := reduced[rel]
		if scratch[w] == nil {
			scratch[w] = make(map[string][][]value.Value)
		}
		cp := scratch[w][rel]
		if cp == nil {
			cp = make([][]value.Value, len(rr.rows))
			copy(cp, rr.rows)
			scratch[w][rel] = cp
		}
		plus := u.PlusRows(e.DB)
		p1 := rr.pos[u.Row1]
		cp[p1] = plus[0]
		p2 := -1
		if u.Swap {
			p2 = rr.pos[u.Row2]
			cp[p2] = plus[1]
		}
		res, rerr := q.RunOverride(e.DB, exec.Overrides{rel: cp})
		cp[p1] = rr.rows[p1]
		if p2 >= 0 {
			cp[p2] = rr.rows[p2]
		}
		if rerr != nil {
			return rerr
		}
		if res.Hash() != rr.baseline {
			out[i] = true
		}
		return nil
	})
	if err != nil {
		return true, 0, err
	}
	return true, len(idxs), nil
}

// sweepHashes runs every query on D and on each live element, returning
// per output the combined output hash of its queries per element plus the
// hash for D itself: one output over all of qs for a bundle, one per query
// otherwise (encoded exactly as a one-query bundle, so prices derived from
// either are bit-identical). Each element is applied once for all the
// queries. Stats count one naive run per (live element, query).
func (e *Engine) sweepHashes(ctx context.Context, qs []*exec.Query, spec SweepSpec) ([][]uint64, []uint64, []Stats, error) {
	defer e.Obs.Timer("stage_entropy")()
	// Output x combines the hashes of the queries qs[lo:hi] = span(x).
	nOut := len(qs)
	span := func(x int) (lo, hi int) { return x, x + 1 }
	if spec.Bundle {
		nOut = 1
		span = func(int) (lo, hi int) { return 0, len(qs) }
	}
	raw := make([]uint64, len(qs))
	for j, q := range qs {
		res, err := q.Run(e.DB)
		if err != nil {
			return nil, nil, nil, err
		}
		raw[j] = res.Hash()
	}
	n := countLive(spec.Live, e.Set.Size())
	elems := make([][]uint64, nOut)
	bases := make([]uint64, nOut)
	stats := make([]Stats, nOut)
	for x := range elems {
		lo, hi := span(x)
		elems[x] = make([]uint64, e.Set.Size())
		bases[x] = combine(raw[lo:hi])
		stats[x] = Stats{Naive: n * (hi - lo)}
	}
	err := e.parallelApplyCtx(ctx, spec.Live, func(o *storage.Overlay, i int) error {
		el := e.Set.Elements[i]
		el.ApplyOverlay(o)
		defer el.UndoOverlay(o)
		hs := make([]uint64, len(qs))
		for j, q := range qs {
			res, err := q.RunOverride(e.DB, o.Overrides())
			if err != nil {
				return err
			}
			hs[j] = res.Hash()
		}
		for x := range elems {
			lo, hi := span(x)
			elems[x][i] = combine(hs[lo:hi])
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return elems, bases, stats, nil
}

func combine(hs []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range hs {
		for i := 0; i < 8; i++ {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// Price computes the bundle price under the chosen pricing function,
// scaled so that the bundle retrieving the full database costs Total.
func (e *Engine) Price(fn Func, qs ...*exec.Query) (float64, error) {
	if len(qs) == 0 {
		return 0, fmt.Errorf("empty query bundle")
	}
	if !fn.Valid() {
		return 0, fmt.Errorf("unknown pricing function %v", fn)
	}
	r, err := e.Sweep(context.Background(), qs, SweepSpec{Bundle: true, Hashes: fn.UsesHashes()})
	if err != nil {
		return 0, err
	}
	if r.Hashes != nil {
		return e.EntropyPriceFromHashes(fn, r.Hashes[0])
	}
	return e.PriceFromDisagreements(fn, r.Bits[0])
}

// PriceFromDisagreements turns a disagreement bitmap into a price under a
// coverage-style function, using exactly the summation of Price — same
// elements, same index order, same float additions — so a price recomputed
// from a cached bitmap is bit-identical to the cold computation. Only
// WeightedCoverage and UniformEntropyGain are derivable from the bitmap.
func (e *Engine) PriceFromDisagreements(fn Func, dis []bool) (float64, error) {
	if len(dis) != e.Set.Size() {
		return 0, fmt.Errorf("got %d disagreement bits for support set of size %d", len(dis), e.Set.Size())
	}
	switch fn {
	case WeightedCoverage:
		p := 0.0
		for i, d := range dis {
			if d {
				p += e.Weights[i]
			}
		}
		return p, nil
	case UniformEntropyGain:
		d := 0
		for _, x := range dis {
			if x {
				d++
			}
		}
		return e.scaleUEG(d), nil
	}
	return 0, fmt.Errorf("pricing function %v is not derivable from a disagreement bitmap", fn)
}

// PricesFromHashes derives all four pricing functions from one pass of
// per-element output hashes (as returned by OutputHashes). The benchmark
// harness uses it to sweep the 8 function × support combinations of
// Figures 2 and 6 without re-running the bundle per function.
func (e *Engine) PricesFromHashes(hashes []uint64, base uint64) map[Func]float64 {
	out := make(map[Func]float64, 4)
	cov, d := 0.0, 0
	for i, h := range hashes {
		if h != base {
			cov += e.Weights[i]
			d++
		}
	}
	out[WeightedCoverage] = cov
	out[UniformEntropyGain] = e.scaleUEG(d)
	out[ShannonEntropy] = e.entropyPrice(ShannonEntropy, hashes)
	out[QEntropy] = e.entropyPrice(QEntropy, hashes)
	return out
}

// EntropyPriceFromHashes turns a full per-element output-hash vector (as
// returned by OutputHashes) into a Shannon or Tsallis entropy price,
// using exactly the block accumulation of Price — first-appearance order,
// same float additions — so a price folded from per-shard hash slices
// concatenated in index order is bit-identical to the single-node
// computation. Only ShannonEntropy and QEntropy partition by hash.
func (e *Engine) EntropyPriceFromHashes(fn Func, hashes []uint64) (float64, error) {
	if len(hashes) != e.Set.Size() {
		return 0, fmt.Errorf("got %d output hashes for support set of size %d", len(hashes), e.Set.Size())
	}
	switch fn {
	case ShannonEntropy, QEntropy:
		return e.entropyPrice(fn, hashes), nil
	}
	return 0, fmt.Errorf("pricing function %v is not derivable from output hashes alone", fn)
}

func (e *Engine) scaleUEG(d int) float64 {
	s := e.Set.Size()
	if d == 0 || s <= 1 {
		return 0
	}
	return e.Total * math.Log(float64(d)) / math.Log(float64(s))
}

// entropyPrice computes p_H or p_T over the partition of S induced by the
// output hashes, normalized so that the all-singletons partition (achieved
// by Q_all) prices at Total.
func (e *Engine) entropyPrice(fn Func, hashes []uint64) float64 {
	// Blocks accumulate and sum in first-appearance order (not map
	// iteration order) so the floating-point result is bit-identical
	// across runs — part of the engine's determinism guarantee.
	blocks := make(map[uint64]float64)
	var order []uint64
	for i, h := range hashes {
		if _, seen := blocks[h]; !seen {
			order = append(order, h)
		}
		blocks[h] += e.Weights[i] / e.Total
	}
	var v, vmax float64
	switch fn {
	case ShannonEntropy:
		for _, h := range order {
			if w := blocks[h]; w > 0 {
				v -= w * math.Log(w)
			}
		}
		for i := range hashes {
			w := e.Weights[i] / e.Total
			if w > 0 {
				vmax -= w * math.Log(w)
			}
		}
	case QEntropy:
		for _, h := range order {
			w := blocks[h]
			v += w * (1 - w)
		}
		for i := range hashes {
			w := e.Weights[i] / e.Total
			vmax += w * (1 - w)
		}
	}
	if vmax <= 0 {
		return 0
	}
	p := e.Total * v / vmax
	// Clamp float noise: a single-block partition is exactly free.
	if p < 1e-9*e.Total {
		return 0
	}
	if p > e.Total {
		return e.Total
	}
	return p
}
