// Package disagree implements the optimized disagreement checking of
// paper §4: given a query Q over database D and a row/swap update up↑,
// decide whether Q(D) ≠ Q(up↑(D)) without re-running Q on the full
// database.
//
// The checker covers SPJ queries under bag semantics (Algorithm 4 for row
// updates, Algorithm 6 for swap updates), their DISTINCT forms, self-joins,
// and the aggregation extensions γ_{G, COUNT/SUM/AVG/MIN/MAX} (Algorithm 5,
// §4.3), including the batching optimization of §4.2 that answers the
// residual database checks for a whole batch of updates with a constant
// number of tagged queries per relation.
//
// Residual database checks route through a tier matrix (analyze.DeltaTier)
// rather than a boolean fallback:
//
//   - DeltaFull: the relation occurs once and the query is a plain bag SPJ
//     — the two first-order delta terms decide the check outright.
//   - DeltaPartial: DISTINCT queries and self-joins. The delta terms (for
//     self-joins, the higher-order 3^k−1 expansion of exec.RunDelta) are
//     resolved against materialized intermediates in the version-stamped
//     execution cache (exec/ivm.go): a core-row multiplicity view for
//     DISTINCT, per-group aggregate state with MIN/MAX candidate multisets
//     for aggregation — so extremum removals, previously an unconditional
//     full re-run, resolve incrementally.
//   - Fallback (full re-run) remains only for floating-point borderline
//     cases and view inconsistencies.
//
// Stats counts each residual check under exactly one of these tiers.
//
// Two of the paper's static shortcuts (line 8/10 "B ∩ A ≠ ∅ ⇒ changed")
// are not exact in corner cases — a swap of two projected values can leave
// the output multiset unchanged, and a value change buried in a computed
// expression can be absorbed — so this implementation applies them only
// where they are provably exact (row updates on bare projected columns of
// single-occurrence non-DISTINCT queries) and otherwise falls through to
// the compare check, keeping the fast path equivalent to brute-force
// re-execution (differentially tested).
package disagree

import (
	"fmt"
	"math"

	"qirana/internal/obs"
	"qirana/internal/result"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/sqlengine/plan"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// Outcome of a static classification.
type Outcome int

// Classification results: a definite answer, or a required database check.
const (
	Agree Outcome = iota
	Disagree
	// NeedPlus requires the check Q((D \ R) ∪ {u⁺}) ≟ ∅ (Algorithm 4,
	// line 14 / Algorithm 5, line 16). Batchable.
	NeedPlus
	// NeedCompare requires comparing the runs over {u⁻} and {u⁺}
	// (Algorithm 4, line 11), or the aggregate group-delta analysis for
	// aggregation queries. Batchable.
	NeedCompare
	// NeedFull requires re-running the full query on the updated database
	// (floating-point borderline cases, candidate-view inconsistencies,
	// and — for untiered checkers — MIN/MAX removals).
	NeedFull
)

// CheckStats counts how each update was decided (reported by experiments)
// and how the execution layer served the database checks.
type CheckStats struct {
	Static, Batched, FullRuns int
	// DeltaFullRuns counts residual checks decided by the first-order
	// delta terms alone (tier DeltaFull); DeltaPartialRuns counts checks
	// that additionally consulted a materialized intermediate or the
	// higher-order self-join expansion (tier DeltaPartial). Together with
	// FullRuns they partition the residual checks: every check lands in
	// exactly one of the three.
	DeltaFullRuns, DeltaPartialRuns int
	// IndexCacheHits/Misses aggregate the executor's index-cache counters
	// (filtered sources, join build sides, probe partitions, materialized
	// views) across the queries this checker drives, accumulated per
	// Check/Sweep call. Hit counts depend on Workers (job sharding),
	// so they are informational, not part of the bit-identical result
	// contract.
	IndexCacheHits, IndexCacheMisses int
}

// Checker decides disagreements for one query over one database. It is
// built once per priced query, in one streaming pass over the query's
// join σ_C (R₁ × … × R_ℓ): each joined tuple is projected once, into one
// reused buffer, and that row feeds the contribution key sets and, for
// aggregates, the group view. An aggregate checker compiles and runs one
// statement for both (SPJ.UnrolledStmt); a plain SPJ checker streams its
// contribution query (SPJ.ContribStmt).
type Checker struct {
	Q   *exec.Query
	SPJ *plan.SPJ
	db  *storage.Database

	// unrolledQ is an aggregate checker's compiled base statement: it
	// builds the group view and contribution sets at construction and
	// runs the residual checks afterwards. nil for plain SPJ.
	unrolledQ *exec.Query

	contrib []map[string]bool // per source: contributing PK set
	srcsOf  map[string][]int  // lower(rel) -> source indexes, FROM order
	multi   map[string]bool   // lower(rel) -> occurs more than once

	// tiered selects the full tier matrix. An untiered checker (NewUntiered)
	// reproduces the legacy fallback behaviour for A/B comparison: DISTINCT
	// and self-joins are rejected at construction and extremum removals
	// escalate to a full re-run instead of resolving against candidates.
	tiered   bool
	viewSpec exec.GroupViewSpec

	baseHash    uint64
	baseHashSet bool

	// Workers > 1 parallelizes Sweep (classification, per-relation
	// tagged batches, residual full runs) across that many goroutines over
	// the shared read-only database. Results and Stats are bit-identical
	// to the serial run. Set by the pricing engine from Options.Workers.
	Workers int

	// Obs, when non-nil, receives per-stage latency observations
	// (stage_classify, stage_tagged_batch, stage_delta, stage_residual)
	// from every Sweep. Set by the pricing engine; nil costs a branch.
	Obs *obs.Registry

	Stats CheckStats
}

// cacheSnapshot sums the execution-cache counters of every compiled query
// the checker runs, each once: the priced query and, for aggregates, its
// unrolled form.
func (c *Checker) cacheSnapshot() exec.CacheStats {
	s := c.Q.CacheStats()
	if c.unrolledQ != nil {
		u := c.unrolledQ.CacheStats()
		s.Hits += u.Hits
		s.Misses += u.Misses
	}
	return s
}

// accountCache folds the cache-counter movement since `before` into Stats.
// Both snapshots must be taken at quiesced points (no in-flight workers).
func (c *Checker) accountCache(before exec.CacheStats) {
	after := c.cacheSnapshot()
	c.Stats.IndexCacheHits += int(after.Hits - before.Hits)
	c.Stats.IndexCacheMisses += int(after.Misses - before.Misses)
}

// New builds a checker, or returns an error when the query is outside the
// fast path (the caller then prices naively, as the paper's system does).
func New(q *exec.Query, db *storage.Database) (*Checker, error) {
	return newChecker(q, db, true)
}

// NewUntiered builds a checker restricted to the legacy fallback matrix:
// no DISTINCT, no self-joins, no incremental extremum resolution. It
// exists for A/B measurement of the tier machinery
// (pricing.Options.DisableDeltaTiers) and accepts strictly fewer queries
// than New.
func NewUntiered(q *exec.Query, db *storage.Database) (*Checker, error) {
	return newChecker(q, db, false)
}

func newChecker(q *exec.Query, db *storage.Database, tiered bool) (*Checker, error) {
	s, err := plan.Extract(q.A)
	if err != nil {
		return nil, err
	}
	if !tiered {
		if s.Distinct {
			return nil, fmt.Errorf("DISTINCT is outside the SPJ fast path")
		}
		seen := make(map[string]bool, len(s.RelOfSource))
		for _, rel := range s.RelOfSource {
			l := ast.LowerName(rel)
			if seen[l] {
				return nil, fmt.Errorf("self-join on %s is outside the SPJ fast path", rel)
			}
			seen[l] = true
		}
	}
	c := &Checker{Q: q, SPJ: s, db: db, tiered: tiered,
		srcsOf: make(map[string][]int), multi: make(map[string]bool)}
	for i, rel := range s.RelOfSource {
		l := ast.LowerName(rel)
		c.srcsOf[l] = append(c.srcsOf[l], i)
		if len(c.srcsOf[l]) > 1 {
			c.multi[l] = true
		}
	}
	c.contrib = make([]map[string]bool, len(s.RelOfSource))
	for i := range c.contrib {
		c.contrib[i] = make(map[string]bool)
	}
	// collect adds one projected row's per-source primary keys, found from
	// column pk on, to the contribution sets.
	var key []byte
	collect := func(pk int) func(row []value.Value) {
		return func(row []value.Value) {
			for i, set := range c.contrib {
				off := pk + s.ContribOff[i]
				key = value.AppendKey(key[:0], row[off:off+s.ContribPKW[i]])
				if !set[string(key)] {
					set[string(key)] = true
				}
			}
		}
	}
	if !s.IsAgg {
		cq, err := exec.CompileStmt(s.ContribStmt, db.Schema)
		if err != nil {
			return nil, fmt.Errorf("compile contribution query: %w", err)
		}
		if err := cq.ForEachRow(db, collect(0)); err != nil {
			return nil, fmt.Errorf("run contribution query: %w", err)
		}
		return c, nil
	}
	c.unrolledQ, err = exec.CompileStmt(s.UnrolledStmt, db.Schema)
	if err != nil {
		return nil, fmt.Errorf("compile unrolled query: %w", err)
	}
	c.viewSpec = exec.GroupViewSpec{NumGroups: s.NumGroups, Candidates: tiered}
	for _, ag := range s.Aggs {
		c.viewSpec.Aggs = append(c.viewSpec.Aggs, exec.ViewAgg{Fn: ag.Fn.Name, ArgCol: ag.ArgCol})
	}
	// One pass builds (and caches) the group view and fills the
	// contribution sets from the same rows.
	if _, err := c.unrolledQ.GroupView(db, c.viewSpec, collect(s.UnrolledPK)); err != nil {
		return nil, fmt.Errorf("run unrolled query: %w", err)
	}
	return c, nil
}

// groupView returns the maintained per-group aggregate state, serving it
// from the version-stamped execution cache (rebuilt only when a base
// relation's version moved).
func (c *Checker) groupView() (*exec.GroupView, error) {
	return c.unrolledQ.GroupView(c.db, c.viewSpec, nil)
}

// Classify makes the static decision of Algorithms 4/5/6 for one update,
// without touching the database.
func (c *Checker) Classify(u *support.Update) Outcome {
	return c.classifyWith(u, nil)
}

// classifyWith is Classify with the update's u⁺ tuples optionally
// pre-materialized (nil = fetch lazily). Sweep materializes them once
// and classifies the same update against every checker in the batch.
func (c *Checker) classifyWith(u *support.Update, plus [][]value.Value) Outcome {
	srcs, ok := c.srcsOf[ast.LowerName(u.Rel)]
	if !ok {
		return Agree // the update does not modify any relation of Q
	}
	t := c.db.Table(u.Rel)
	k1 := t.KeyOfRow(u.Row1)
	var k2 string
	if u.Swap {
		k2 = t.KeyOfRow(u.Row2)
	}
	// Contributing at ANY occurrence: for self-joins the same tuple feeds
	// every slot the relation occupies.
	contributing := false
	for _, si := range srcs {
		if c.contrib[si][k1] || (u.Swap && c.contrib[si][k2]) {
			contributing = true
			break
		}
	}

	if !contributing {
		// u⁻ contributed nothing; the output changes iff u⁺ contributes.
		// If every new tuple already fails a single-relation conjunct at
		// EVERY occurrence, it cannot contribute: agree without a check.
		if c.allPlusUnsat(u, srcs, plus) {
			return Agree
		}
		return NeedPlus
	}

	single := len(srcs) == 1
	if !c.SPJ.IsAgg {
		if !u.Swap {
			// Row update, contributing. Exact shortcuts of Algorithm 4,
			// applied only where they remain exact: a changed attribute
			// that is itself an output column forces a multiset change —
			// but only for a single occurrence (another occurrence can
			// re-produce the row) and without DISTINCT (the set can absorb
			// it). An unsatisfiable C[u⁺] removes output rows — exact for
			// any occurrence count, but again only under bag semantics.
			if single && !c.SPJ.Distinct {
				for j, a := range u.Attrs {
					if c.SPJ.BareProj[srcs[0]][a] && changedAt(u, j) {
						return Disagree
					}
				}
			}
			if !c.SPJ.Distinct && c.plusRowUnsatAll(u, srcs, 0, plus) {
				return Disagree
			}
		} else {
			// Swap update, contributing (Algorithm 6): if both new tuples
			// fail C at every occurrence, all contributed rows vanish.
			if !c.SPJ.Distinct &&
				c.plusRowUnsatAll(u, srcs, 0, plus) && c.plusRowUnsatAll(u, srcs, 1, plus) {
				return Disagree
			}
		}
		return NeedCompare
	}

	// Aggregation. Exact shortcut: a contributing row update that changes
	// a bare grouping column moves its contributions to different groups;
	// if COUNT(*) is displayed, the old groups' counts provably drop. Only
	// exact for a single occurrence (a self-join's other slots may keep
	// the old group populated at the same count).
	if !u.Swap && c.SPJ.HasCountStar && single {
		for j, a := range u.Attrs {
			if c.SPJ.BareGroup[srcs[0]][a] && changedAt(u, j) {
				return Disagree
			}
		}
	}
	return NeedCompare
}

// changedAt reports whether the j-th touched attribute actually takes a
// different value. Generated support sets never contain no-op writes, but
// hand-built updates (and the fuzzer) can, and the Disagree shortcuts above
// are only exact for real changes.
func changedAt(u *support.Update, j int) bool {
	old := value.Key([]value.Value{u.Old1[j]})
	return old != value.Key([]value.Value{u.New1[j]})
}

// allPlusUnsat reports whether every u⁺ tuple fails some single-relation
// conjunct at every occurrence of the updated relation (the conservative
// C[u⁺] satisfiability check of §4.1).
func (c *Checker) allPlusUnsat(u *support.Update, srcs []int, plus [][]value.Value) bool {
	if !c.plusRowUnsatAll(u, srcs, 0, plus) {
		return false
	}
	if u.Swap && !c.plusRowUnsatAll(u, srcs, 1, plus) {
		return false
	}
	return true
}

// plusRowUnsatAll reports whether the idx-th new tuple provably cannot
// contribute at ANY occurrence of the updated relation: each occurrence
// must fail one of its single-relation conjuncts. rows may carry the
// pre-materialized u⁺ tuples (nil = build them here).
func (c *Checker) plusRowUnsatAll(u *support.Update, srcs []int, idx int, rows [][]value.Value) bool {
	if rows == nil {
		rows = u.PlusRows(c.db)
	}
	if idx >= len(rows) {
		return false
	}
	for _, si := range srcs {
		if !c.rowUnsatAt(si, rows[idx]) {
			return false
		}
	}
	return true
}

// rowUnsatAt evaluates source si's single-relation conjuncts on row; any
// non-true conjunct proves the row cannot contribute at that occurrence.
func (c *Checker) rowUnsatAt(si int, row []value.Value) bool {
	conjs := c.SPJ.SingleRel[si]
	if len(conjs) == 0 {
		return false
	}
	for _, cj := range conjs {
		v, err := c.Q.EvalSingleSource(c.db, si, row, cj)
		if err != nil {
			return false // be conservative
		}
		if value.TristateOf(v) != value.True {
			return true
		}
	}
	return false
}

// Check fully decides one update, resolving any needed database checks
// individually (the "no batching" mode of Figure 5).
func (c *Checker) Check(u *support.Update) (bool, error) {
	before := c.cacheSnapshot()
	defer c.accountCache(before)
	switch c.Classify(u) {
	case Agree:
		c.Stats.Static++
		return false, nil
	case Disagree:
		c.Stats.Static++
		return true, nil
	case NeedPlus:
		return c.resolve(u, false)
	case NeedCompare:
		return c.resolve(u, true)
	}
	return c.fullRun(u)
}

// checkQuery is the query a residual database check runs: the priced query
// itself for SPJ, its unrolled form (a plain SPJ over the same joins) for
// aggregates.
func (c *Checker) checkQuery() *exec.Query {
	if c.SPJ.IsAgg {
		return c.unrolledQ
	}
	return c.Q
}

// resolve answers one residual check through the delta tiers, escalating
// to a full re-run when decide cannot give an exact answer, and accounts
// the check under exactly one Stats tier.
func (c *Checker) resolve(u *support.Update, compare bool) (bool, error) {
	dis, esc, partial, err := c.decide(u, compare)
	if err != nil {
		return false, err
	}
	if esc {
		return c.fullRun(u)
	}
	if partial {
		c.Stats.DeltaPartialRuns++
	} else {
		c.Stats.DeltaFullRuns++
	}
	return dis, nil
}

// decide resolves one residual database check through delta evaluation:
// only the update's ± tuples flow through the join pipeline, probing the
// cached indexes of the untouched relations, and the correction terms are
// interpreted per tier — directly for plain bag SPJ, against the
// multiplicity view for DISTINCT, through the group-delta analysis (with
// candidate multisets) for aggregates. compare selects the NeedCompare
// form (both sides) over the NeedPlus form (u⁺ only).
//
// Returns the disagreement bit, esc=true when only a full re-run can
// answer exactly, and partial=true when a materialized intermediate or
// the higher-order self-join expansion was consulted (tier accounting).
func (c *Checker) decide(u *support.Update, compare bool) (dis, esc, partial bool, err error) {
	q := c.checkQuery()
	if q.DeltaTier(u.Rel) == analyze.DeltaNone {
		return false, true, false, nil
	}
	var minus [][]value.Value
	if compare {
		minus = u.MinusRows(c.db)
	}
	outMinus, outPlus, err := q.RunDelta(c.db, u.Rel, minus, u.PlusRows(c.db))
	if err != nil {
		return false, false, false, err
	}
	multi := c.multi[ast.LowerName(u.Rel)]
	if !c.SPJ.IsAgg {
		if c.SPJ.Distinct {
			mv, err := c.Q.MultiplicityView(c.db)
			if err != nil {
				return false, false, false, err
			}
			return distinctFlips(mv, outMinus, outPlus), false, true, nil
		}
		if !compare {
			return len(outPlus) > 0 || len(outMinus) > 0, false, multi, nil
		}
		// Q(up(D)) = Q(D) − outMinus + outPlus as signed multisets, so the
		// outputs differ iff the two correction terms differ.
		return !equalMultiset(outMinus, outPlus), false, multi, nil
	}
	gv, err := c.groupView()
	if err != nil {
		return false, false, false, err
	}
	out, usedCand := c.aggDelta(gv, outMinus, outPlus)
	switch out {
	case Agree:
		return false, false, multi || usedCand, nil
	case Disagree:
		return true, false, multi || usedCand, nil
	}
	return false, true, false, nil
}

// distinctFlips nets the core-row correction terms against the base
// multiplicity view and reports whether any projected row's multiplicity
// crosses zero — the exact condition for the DISTINCT output (a set) to
// change. Order-independent, hence deterministic under any worker count.
func distinctFlips(mv *exec.MultiplicityView, outMinus, outPlus [][]value.Value) bool {
	net := make(map[string]int, len(outPlus)+len(outMinus))
	for _, r := range outPlus {
		net[value.Key(r)]++
	}
	for _, r := range outMinus {
		net[value.Key(r)]--
	}
	for k, d := range net {
		if d == 0 {
			continue
		}
		old := mv.Counts[k]
		if (old > 0) != (old+d > 0) {
			return true
		}
	}
	return false
}

// ensureBaseHash computes and caches h(Q(D)). It must be called before
// fullRunOn fans out (the residual checks then only read the checker).
func (c *Checker) ensureBaseHash() error {
	if c.baseHashSet {
		return nil
	}
	res, err := c.Q.Run(c.db)
	if err != nil {
		return err
	}
	c.baseHash = res.Hash()
	c.baseHashSet = true
	return nil
}

// fullRun re-executes Q over the updated instance and compares output
// hashes (Algorithm 1's inner loop for a single element).
func (c *Checker) fullRun(u *support.Update) (bool, error) {
	if err := c.ensureBaseHash(); err != nil {
		return false, err
	}
	c.Stats.FullRuns++
	return c.fullRunOn(storage.NewOverlay(c.db), u)
}

// fullRunOn evaluates one residual full check through a (per-worker,
// reusable) overlay: the update is realized as a copy-on-write view, so
// the base database is never written and checks run concurrently. The
// caller must have run ensureBaseHash and accounts Stats itself.
func (c *Checker) fullRunOn(o *storage.Overlay, u *support.Update) (bool, error) {
	u.ApplyOverlay(o)
	res, err := c.Q.RunOverride(c.db, o.Overrides())
	u.UndoOverlay(o)
	if err != nil {
		return false, err
	}
	return res.Hash() != c.baseHash, nil
}

// equalMultiset compares two row bags exactly.
func equalMultiset(a, b [][]value.Value) bool {
	ra := result.Result{Rows: a}
	rb := result.Result{Rows: b}
	return ra.Equal(&rb)
}

const floatEps = 1e-9

// deltaAcc accumulates the per-group contribution deltas of one update.
// For self-joins the higher-order expansion produces SIGNED terms — either
// side may overshoot, only the net per-row count is meaningful — so every
// decision below is made on add−rem nets, never on one side alone.
type deltaAcc struct {
	addRows, remRows int64
	addN, remN       []int64
	addSum, remSum   []float64
	addVals          [][]value.Value // per agg, added values (MIN/MAX)
	remVals          [][]value.Value
}

// aggDelta decides whether applying an update whose removed contributions
// are minus and added contributions are plus (rows of the unrolled query)
// changes the aggregation output, given the maintained group view of the
// base state. It is exact except for floating-point borderline cases,
// inconsistencies between the correction terms and the view (possible
// only through overshooting self-join terms), and — without candidate
// multisets — extremum removals; those return NeedFull. usedCand reports
// whether a candidate multiset resolved an extremum removal (the partial
// tier).
func (c *Checker) aggDelta(gv *exec.GroupView, minus, plus [][]value.Value) (out Outcome, usedCand bool) {
	s := c.SPJ
	na := len(s.Aggs)
	deltas := make(map[string]*deltaAcc)
	order := make([]string, 0, 4)
	get := func(k string) *deltaAcc {
		d := deltas[k]
		if d == nil {
			d = &deltaAcc{addN: make([]int64, na), remN: make([]int64, na),
				addSum: make([]float64, na), remSum: make([]float64, na),
				addVals: make([][]value.Value, na), remVals: make([][]value.Value, na)}
			deltas[k] = d
			order = append(order, k)
		}
		return d
	}
	for _, row := range minus {
		d := get(value.Key(row[:s.NumGroups]))
		d.remRows++
		for j, ag := range s.Aggs {
			v := row[ag.ArgCol]
			if v.IsNull() {
				continue
			}
			d.remN[j]++
			switch ag.Fn.Name {
			case "SUM", "AVG":
				d.remSum[j] += v.AsFloat()
			case "MIN", "MAX":
				d.remVals[j] = append(d.remVals[j], v)
			}
		}
	}
	for _, row := range plus {
		d := get(value.Key(row[:s.NumGroups]))
		d.addRows++
		for j, ag := range s.Aggs {
			v := row[ag.ArgCol]
			if v.IsNull() {
				continue
			}
			d.addN[j]++
			switch ag.Fn.Name {
			case "SUM", "AVG":
				d.addSum[j] += v.AsFloat()
			case "MIN", "MAX":
				d.addVals[j] = append(d.addVals[j], v)
			}
		}
	}

	uncertain := false
	for _, k := range order {
		d := deltas[k]
		st := gv.Groups[k]
		if st == nil {
			switch c.phantomGroupDelta(d) {
			case Disagree:
				return Disagree, usedCand
			case NeedFull:
				uncertain = true
			}
			continue
		}
		newRows := st.Rows - d.remRows + d.addRows
		if newRows < 0 {
			// More net removals than the group holds: an overshoot
			// artefact; only a full run can tell.
			uncertain = true
			continue
		}
		if s.NumGroups > 0 && newRows == 0 {
			return Disagree, usedCand // the group's output row disappears
		}
		for j, ag := range s.Aggs {
			dn := d.addN[j] - d.remN[j]
			nNew := st.N[j] + dn
			if nNew < 0 {
				uncertain = true
				continue
			}
			switch ag.Fn.Name {
			case "COUNT":
				if dn != 0 {
					return Disagree, usedCand
				}
			case "SUM":
				if (st.N[j] == 0) != (nNew == 0) {
					return Disagree, usedCand // SUM flips between NULL and a value
				}
				ds := d.addSum[j] - d.remSum[j]
				if ds == 0 {
					continue
				}
				scale := math.Abs(st.Sum[j]) + math.Abs(d.addSum[j]) + math.Abs(d.remSum[j]) + 1
				if math.Abs(ds) > floatEps*scale {
					return Disagree, usedCand
				}
				uncertain = true
			case "AVG":
				if (st.N[j] == 0) != (nNew == 0) {
					return Disagree, usedCand
				}
				if nNew == 0 {
					continue // NULL stays NULL
				}
				oldAvg := st.Sum[j] / float64(st.N[j])
				newAvg := (st.Sum[j] + d.addSum[j] - d.remSum[j]) / float64(nNew)
				if math.Abs(newAvg-oldAvg) > floatEps*(1+math.Abs(oldAvg)) {
					return Disagree, usedCand
				}
				if dn != 0 || d.addSum[j]-d.remSum[j] != 0 {
					uncertain = true // count/sum moved but mean may be equal
				}
			case "MIN":
				o, uc := extremumDelta(st.Min[j], d.addVals[j], d.remVals[j], -1, candOf(st, j))
				usedCand = usedCand || uc
				if o == Disagree {
					return Disagree, usedCand
				}
				if o == NeedFull {
					uncertain = true
				}
			case "MAX":
				o, uc := extremumDelta(st.Max[j], d.addVals[j], d.remVals[j], +1, candOf(st, j))
				usedCand = usedCand || uc
				if o == Disagree {
					return Disagree, usedCand
				}
				if o == NeedFull {
					uncertain = true
				}
			}
		}
	}
	if uncertain {
		return NeedFull, usedCand
	}
	return Agree, usedCand
}

// candOf returns the candidate multiset of aggregate j, nil when the view
// does not maintain one (untiered checkers, non-extremum aggregates).
func candOf(st *exec.GroupAgg, j int) map[string]exec.CandCount {
	if st.Cand == nil {
		return nil
	}
	return st.Cand[j]
}

// phantomGroupDelta decides the contribution delta of a group ABSENT from
// the base view. Net additions create a new output row (or, for the
// global group, flip aggregates off NULL); exact cancellations are a
// no-op; anything else — possible only through overshooting self-join
// terms — escalates.
func (c *Checker) phantomGroupDelta(d *deltaAcc) Outcome {
	s := c.SPJ
	netRows := d.addRows - d.remRows
	if netRows < 0 {
		return NeedFull // net removal from a group that does not exist
	}
	if netRows > 0 {
		if s.NumGroups > 0 {
			return Disagree // a brand-new output row appears
		}
		// Global group over empty input: the output row already exists as
		// (COUNT 0, SUM NULL, …). It only changes if some aggregate gains
		// a non-NULL input (COUNT(*)'s input is the constant 1, so any
		// contributing row counts there).
		for j := range s.Aggs {
			dn := d.addN[j] - d.remN[j]
			if dn > 0 {
				return Disagree
			}
			if dn < 0 {
				return NeedFull
			}
		}
		return Agree
	}
	// Row counts cancel. The group stays absent only if every aggregate's
	// contribution cancels too.
	if d.addRows == 0 {
		return Agree
	}
	for j, ag := range s.Aggs {
		if d.addN[j] != d.remN[j] {
			return NeedFull
		}
		switch ag.Fn.Name {
		case "SUM", "AVG":
			if d.addSum[j] != d.remSum[j] {
				return NeedFull
			}
		case "MIN", "MAX":
			if !valuesCancel(d.addVals[j], d.remVals[j]) {
				return NeedFull
			}
		}
	}
	return Agree
}

// valuesCancel reports whether added and removed form identical multisets.
func valuesCancel(added, removed []value.Value) bool {
	if len(added) != len(removed) {
		return false
	}
	net := make(map[string]int, len(added))
	for _, v := range added {
		net[value.Key([]value.Value{v})]++
	}
	for _, v := range removed {
		net[value.Key([]value.Value{v})]--
	}
	for _, n := range net {
		if n != 0 {
			return false
		}
	}
	return true
}

// extremumDelta decides a MIN (dir=-1) or MAX (dir=+1) change given the
// current extremum, the signed added/removed input values of the group,
// and (optionally) the group's maintained candidate multiset. The raw
// sides are netted by value first — the higher-order expansion can place
// identical values on both sides — and every scan walks the insertion
// order of the nets (added slice, then removed), never a map, so the
// outcome is worker-invariant. usedCand reports whether the candidate
// multiset was needed (extremum-removal resolution, the partial tier).
func extremumDelta(cur value.Value, added, removed []value.Value, dir int, cand map[string]exec.CandCount) (out Outcome, usedCand bool) {
	net := make(map[string]int, len(added)+len(removed))
	vals := make(map[string]value.Value, len(added)+len(removed))
	order := make([]string, 0, len(added)+len(removed))
	note := func(v value.Value, d int) {
		k := value.Key([]value.Value{v})
		if _, seen := vals[k]; !seen {
			vals[k] = v
			order = append(order, k)
		}
		net[k] += d
	}
	for _, v := range added {
		note(v, +1)
	}
	for _, v := range removed {
		note(v, -1)
	}

	if cur.IsNull() {
		for _, k := range order {
			if net[k] > 0 {
				return Disagree, false // NULL -> some value
			}
			if net[k] < 0 {
				return NeedFull, false // removal from an empty aggregate
			}
		}
		return Agree, false
	}
	removedExt := false
	for _, k := range order {
		n := net[k]
		if n == 0 {
			continue
		}
		cmp, ok := value.Compare(vals[k], cur)
		if !ok {
			return NeedFull, false
		}
		if n > 0 && cmp*dir > 0 {
			return Disagree, false // a net-new value beats the extremum
		}
		if n < 0 && cmp == 0 {
			removedExt = true
		}
	}
	if !removedExt {
		return Agree, false
	}
	// Occurrences of the current extremum are (net) removed: the new
	// extremum depends on the remaining multiset. Without candidates only
	// a full run can tell; with them, rebuild remaining = candidates + net
	// and take its extremum.
	if cand == nil {
		return NeedFull, false
	}
	rem := make(map[string]exec.CandCount, len(cand)+len(order))
	for k, e := range cand {
		rem[k] = e
	}
	for _, k := range order {
		n := net[k]
		if n == 0 {
			continue
		}
		e, exists := rem[k]
		if !exists {
			if n < 0 {
				return NeedFull, true // removing a value the view never saw
			}
			rem[k] = exec.CandCount{Val: vals[k], N: n}
			continue
		}
		e.N += n
		switch {
		case e.N < 0:
			return NeedFull, true
		case e.N == 0:
			delete(rem, k)
		default:
			rem[k] = e
		}
	}
	if len(rem) == 0 {
		return Disagree, true // the aggregate becomes NULL
	}
	// Scan for the remaining extremum. Map order does not matter: the
	// winning value set is a property of the multiset, and a tie between
	// DISTINCT keys comparing equal resolves to NeedFull either way.
	var best value.Value
	var bestKey string
	first, tie := true, false
	for k, e := range rem {
		if first {
			best, bestKey, first = e.Val, k, false
			continue
		}
		cmp, ok := value.Compare(e.Val, best)
		if !ok {
			return NeedFull, true
		}
		if cmp*dir > 0 {
			best, bestKey, tie = e.Val, k, false
		} else if cmp == 0 {
			tie = true
		}
	}
	cmp, ok := value.Compare(best, cur)
	if !ok {
		return NeedFull, true
	}
	if cmp != 0 {
		return Disagree, true // the extremum moves to a different value
	}
	if tie || bestKey != value.Key([]value.Value{cur}) {
		// A value comparing equal but with a different representation
		// could still flip the output hash; stay exact.
		return NeedFull, true
	}
	return Agree, true
}
