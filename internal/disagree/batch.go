package disagree

import (
	"context"
	"fmt"
	"sort"

	"qirana/internal/obs"
	"qirana/internal/pool"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// skipped marks support elements excluded by the live mask.
const skipped Outcome = -1

// classifyBlock is the shard granularity of the parallel classification
// pass: large enough to amortize the work-stealing index, small enough to
// balance skewed blocks.
const classifyBlock = 64

// minBatchShard is the smallest tagged-batch slice worth its own worker:
// below this the per-query fixed cost (join setup over the base relations)
// dominates and sharding would add work instead of hiding it.
const minBatchShard = 32

// batchJob is one tagged-query task: answer the NeedPlus (compare=false)
// or NeedCompare (compare=true) checks for a slice of updates that all
// touch relation rel. Jobs partition the pending updates, touch disjoint
// res indexes, and only read the checker and the base database, so any
// number of them run concurrently.
type batchJob struct {
	rel     string
	idxs    []int
	compare bool
}

// deltaCheck is one per-update delta task: updates of a relation with
// multiple occurrences cannot share a tagged query (the upid substitution
// is per-slot-unsound for self-joins), so each resolves individually
// through the higher-order expansion of Checker.decide.
type deltaCheck struct {
	i       int
	compare bool
}

// CheckBatch decides all updates for one checker; it is Sweep with k=1
// and no context.
func (c *Checker) CheckBatch(us []*support.Update, live []bool) ([]bool, error) {
	res, err := Sweep(context.Background(), []*Checker{c}, us, live)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Sweep decides all updates for k ≥ 1 checkers — k priced queries over
// the same database and support set — in one staged pass, batching the
// database checks per relation (paper §4.2): for every single-occurrence
// relation at most one tagged query answers the NeedPlus checks and two
// tagged queries answer the NeedCompare checks, independent of how many
// updates are in the batch; multi-occurrence (self-join) relations
// resolve per update through the delta expansion. The live mask (nil =
// all live) skips elements: history-aware pricing masks elements that
// already contributed, sampled and sharded sweeps mask everything
// outside their sample or slice.
//
// The stages are shared across checkers: one classification pass builds
// each update's u⁺/u⁻ tuples once (only for updates whose relation some
// checker reads) and classifies it against every checker, the tagged
// batches and per-update delta checks of all checkers run in one worker
// pool, and the residual full runs share per-worker overlays. With
// Workers > 1 every stage runs concurrently over the shared read-only
// database. Every (update, checker) decision runs the same code against
// the same inputs and lands in its own result slot, and Stats accumulate
// by counting, so results and per-checker Stats are bit-identical to k
// serial single-checker sweeps. Every stage polls ctx between items, so
// cancellation aborts the sweep mid-batch with ctx.Err().
func Sweep(ctx context.Context, cs []*Checker, us []*support.Update, live []bool) ([][]bool, error) {
	if len(cs) == 0 {
		return nil, nil
	}
	db := cs[0].db
	workers := 1
	for _, c := range cs {
		if c.db != db {
			return nil, fmt.Errorf("disagree.Sweep: checkers span different databases")
		}
		workers = max(workers, c.Workers)
	}
	workers = pool.Clamp(workers, len(us))

	// Account the executor's index-cache movement for this batch. Both
	// snapshots happen at quiesced points (pool.Run waits for its workers),
	// so the before/after delta is exact.
	befores := make([]exec.CacheStats, len(cs))
	for k, c := range cs {
		befores[k] = c.cacheSnapshot()
	}
	defer func() {
		for k, c := range cs {
			c.accountCache(befores[k])
		}
	}()

	// The checkers of one engine all carry the engine's registry, so the
	// first non-nil one times the shared stages.
	var reg *obs.Registry
	for _, c := range cs {
		if c.Obs != nil {
			reg = c.Obs
			break
		}
	}

	// Static classification (Algorithms 4/5/6, no database access), with
	// the u⁺/u⁻ tuples materialized once per update any checker reads.
	stopClassify := reg.Timer("stage_classify")
	plus := make([][][]value.Value, len(us))
	minus := make([][][]value.Value, len(us))
	outcomes := make([][]Outcome, len(cs))
	for k := range cs {
		outcomes[k] = make([]Outcome, len(us))
	}
	nBlocks := (len(us) + classifyBlock - 1) / classifyBlock
	if err := pool.RunCtx(ctx, workers, nBlocks, func(b int) error {
		for i := b * classifyBlock; i < min((b+1)*classifyBlock, len(us)); i++ {
			if live != nil && !live[i] {
				for k := range cs {
					outcomes[k][i] = skipped
				}
				continue
			}
			rel := ast.LowerName(us[i].Rel)
			for _, c := range cs {
				if _, ok := c.srcsOf[rel]; ok {
					plus[i] = us[i].PlusRows(db)
					minus[i] = us[i].MinusRows(db)
					break
				}
			}
			for k, c := range cs {
				outcomes[k][i] = c.classifyWith(us[i], plus[i])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	stopClassify()

	// Per checker: fold the static decisions, then collect every tagged
	// job and every per-update delta check into shared pools.
	type job struct {
		k int
		j batchJob
	}
	type delta struct {
		k  int
		dc deltaCheck
	}
	results := make([][]bool, len(cs))
	fullPending := make([][]int, len(cs))
	var jobs []job
	var deltas []delta
	for k, c := range cs {
		results[k] = make([]bool, len(us))
		plusPending := make(map[string][]int)
		comparePending := make(map[string][]int)
		for i := range us {
			o := outcomes[k][i]
			switch o {
			case skipped:
			case Agree:
				c.Stats.Static++
			case Disagree:
				c.Stats.Static++
				results[k][i] = true
			case NeedPlus, NeedCompare:
				compare := o == NeedCompare
				rel := ast.LowerName(us[i].Rel)
				switch {
				case c.multi[rel]:
					deltas = append(deltas, delta{k: k, dc: deltaCheck{i: i, compare: compare}})
				case compare:
					comparePending[rel] = append(comparePending[rel], i)
				default:
					plusPending[rel] = append(plusPending[rel], i)
				}
			case NeedFull:
				fullPending[k] = append(fullPending[k], i)
			}
		}
		for _, j := range makeJobs(plusPending, comparePending, workers) {
			c.Stats.Batched += len(j.idxs)
			jobs = append(jobs, job{k: k, j: j})
		}
	}

	// Batch 1 per relation: Q((D \ R) ∪ {u⁺}) emptiness checks.
	// Batches 2+3 per relation: compare the {u⁻} and {u⁺} runs.
	plusOf := func(i int) [][]value.Value { return plus[i] }
	minusOf := func(i int) [][]value.Value { return minus[i] }
	extraFull := make([][]int, len(jobs))
	tallies := make([][2]int, len(jobs)) // per job: decided at (full, partial) tier
	stopTagged := reg.Timer("stage_tagged_batch")
	if err := pool.RunCtx(ctx, workers, len(jobs), func(x int) error {
		jb := jobs[x]
		ef, nFull, nPartial, err := cs[jb.k].runBatchJob(us, jb.j, results[jb.k], plusOf, minusOf)
		extraFull[x] = ef
		tallies[x] = [2]int{nFull, nPartial}
		return err
	}); err != nil {
		return nil, err
	}
	stopTagged()
	for x, ef := range extraFull {
		c := cs[jobs[x].k]
		fullPending[jobs[x].k] = append(fullPending[jobs[x].k], ef...)
		c.Stats.DeltaFullRuns += tallies[x][0]
		c.Stats.DeltaPartialRuns += tallies[x][1]
	}

	// Per-update delta checks of multi-occurrence relations (self-joins):
	// each runs the higher-order expansion against the cached indexes and
	// views, escalating to the residual stage when inexact.
	if len(deltas) > 0 {
		type deltaRes struct{ dis, esc, partial bool }
		dres := make([]deltaRes, len(deltas))
		stopDelta := reg.Timer("stage_delta")
		if err := pool.RunCtx(ctx, workers, len(deltas), func(x int) error {
			d := deltas[x]
			dis, esc, partial, err := cs[d.k].decide(us[d.dc.i], d.dc.compare)
			dres[x] = deltaRes{dis: dis, esc: esc, partial: partial}
			return err
		}); err != nil {
			return nil, err
		}
		stopDelta()
		for x, d := range deltas {
			c := cs[d.k]
			switch {
			case dres[x].esc:
				fullPending[d.k] = append(fullPending[d.k], d.dc.i)
			case dres[x].partial:
				results[d.k][d.dc.i] = dres[x].dis
				c.Stats.DeltaPartialRuns++
			default:
				results[d.k][d.dc.i] = dres[x].dis
				c.Stats.DeltaFullRuns++
			}
		}
	}

	// Residual full runs (rare: float borderlines and view overshoot),
	// fanned out over per-worker overlays of the shared instance; all
	// checkers share the database, so a worker's overlay serves any of
	// them under the apply/run/undo discipline.
	type fullCheck struct{ k, i int }
	var fulls []fullCheck
	for k, c := range cs {
		if len(fullPending[k]) == 0 {
			continue
		}
		if err := c.ensureBaseHash(); err != nil {
			return nil, err
		}
		c.Stats.FullRuns += len(fullPending[k])
		for _, i := range fullPending[k] {
			fulls = append(fulls, fullCheck{k: k, i: i})
		}
	}
	if len(fulls) > 0 {
		defer reg.Timer("stage_residual")()
		fw := pool.Clamp(workers, len(fulls))
		overlays := make([]*storage.Overlay, fw)
		if err := pool.RunWorkersCtx(ctx, fw, len(fulls), func(w, x int) error {
			o := overlays[w]
			if o == nil {
				o = storage.NewOverlay(db)
				overlays[w] = o
			}
			d, err := cs[fulls[x].k].fullRunOn(o, us[fulls[x].i])
			if err != nil {
				return err
			}
			results[fulls[x].k][fulls[x].i] = d
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// makeJobs turns the pending maps into a deterministic job list, sharding
// a relation's updates across several tagged queries when the batch is
// large enough to keep multiple workers busy.
func makeJobs(plusPending, comparePending map[string][]int, workers int) []batchJob {
	var jobs []batchJob
	add := func(pending map[string][]int, compare bool) {
		rels := make([]string, 0, len(pending))
		for rel := range pending {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		for _, rel := range rels {
			for _, chunk := range shard(pending[rel], workers) {
				jobs = append(jobs, batchJob{rel: rel, idxs: chunk, compare: compare})
			}
		}
	}
	add(plusPending, false)
	add(comparePending, true)
	return jobs
}

// shard splits idxs into at most workers near-equal chunks of at least
// minBatchShard elements (one chunk when serial or small).
func shard(idxs []int, workers int) [][]int {
	n := len(idxs)
	chunks := workers
	if c := n / minBatchShard; c < chunks {
		chunks = c
	}
	if chunks <= 1 {
		return [][]int{idxs}
	}
	size := (n + chunks - 1) / chunks
	out := make([][]int, 0, chunks)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, idxs[lo:hi])
	}
	return out
}

// runBatchJob answers one job's checks with the §4.2 tagged queries,
// writing the decided bits into res (disjoint indexes per job) and
// returning the updates escalated to a residual full run plus the counts
// of checks decided at the full and partial delta tiers. plusOf/minusOf
// supply the u⁺/u⁻ tuples per update index, materialized once by Sweep
// and shared across its checkers.
func (c *Checker) runBatchJob(us []*support.Update, j batchJob, res []bool, plusOf, minusOf func(int) [][]value.Value) (fullPending []int, nFull, nPartial int, err error) {
	q := c.checkQuery()
	var gv *exec.GroupView
	var mv *exec.MultiplicityView
	if c.SPJ.IsAgg {
		if gv, err = c.groupView(); err != nil {
			return nil, 0, 0, err
		}
	} else if c.SPJ.Distinct {
		if mv, err = c.Q.MultiplicityView(c.db); err != nil {
			return nil, 0, 0, err
		}
	}
	// settle records one decided check; consulting the multiplicity view
	// or a candidate multiset is the partial tier, a bare first-order
	// answer the full tier (tagged jobs never cover self-joins).
	settle := func(i int, dis, usedView bool) {
		res[i] = dis
		if usedView {
			nPartial++
		} else {
			nFull++
		}
	}
	decide := func(i int, m, p [][]value.Value) {
		switch {
		case c.SPJ.IsAgg:
			o, usedCand := c.aggDelta(gv, m, p)
			if o == NeedFull {
				fullPending = append(fullPending, i)
			} else {
				settle(i, o == Disagree, usedCand)
			}
		case c.SPJ.Distinct:
			settle(i, distinctFlips(mv, m, p), true)
		case m == nil:
			settle(i, len(p) > 0, false)
		default:
			settle(i, !equalMultiset(m, p), false)
		}
	}
	if !j.compare {
		out, rerr := q.RunTagged(c.db, j.rel, tagRows(plusOf, j.idxs))
		if rerr != nil {
			return nil, 0, 0, rerr
		}
		for _, i := range j.idxs {
			decide(i, nil, out[int64(i)])
		}
		return fullPending, nFull, nPartial, nil
	}
	outMinus, err := q.RunTagged(c.db, j.rel, tagRows(minusOf, j.idxs))
	if err != nil {
		return nil, 0, 0, err
	}
	outPlus, err := q.RunTagged(c.db, j.rel, tagRows(plusOf, j.idxs))
	if err != nil {
		return nil, 0, 0, err
	}
	for _, i := range j.idxs {
		decide(i, outMinus[int64(i)], outPlus[int64(i)])
	}
	return fullPending, nFull, nPartial, nil
}

// tagRows builds the tagged replacement relation R⁺ (or R⁻) of §4.2: each
// affected tuple of update i extended with the trailing upid column i.
// The source tuples come through rowsOf and are never mutated (they are
// built with cap == len, so the append allocates a fresh backing array —
// required because Sweep shares one materialization across concurrent
// jobs).
func tagRows(rowsOf func(int) [][]value.Value, idxs []int) [][]value.Value {
	var out [][]value.Value
	for _, i := range idxs {
		for _, r := range rowsOf(i) {
			out = append(out, append(r, value.NewInt(int64(i))))
		}
	}
	return out
}
