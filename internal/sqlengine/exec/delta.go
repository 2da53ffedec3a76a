package exec

import (
	"fmt"
	"slices"

	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/storage"
	"qirana/internal/value"
)

// This file implements delta evaluation: running only the ± rows of an
// updated relation through the join pipeline instead of re-executing the
// query over the whole database. For a plain SPJ query Q referencing the
// updated relation once, multiset semantics give the first-order rewrite
//
//	Q(up(D)) = Q(D) − Q(D[rel ← minus]) + Q(D[rel ← plus])
//
// where D[rel ← rows] replaces rel by just the delta rows. When rel
// occurs k > 1 times (a self-join), Q is multilinear in its k occurrence
// slots, so substituting R − minus + plus into every slot and expanding
// yields the higher-order form (the DBToaster recipe): one term per
// assignment vector in {base, minus, plus}^k except all-base — 3^k − 1
// terms, each with sign (−1)^{#minus-slots}. Positive terms accumulate
// into outPlus, negative ones into outMinus, and the first-order identity
// above still holds with SIGNED multiset counts (an individual term may
// overshoot; only the net count per row is guaranteed non-negative).
//
// Every term joins a handful of delta rows against the cached filtered
// sources and hash indexes of the untouched relations (cache.go), so a
// disagreement check that would otherwise re-run Q over O(|D|) tuples
// costs O(|delta| probes) per term. Callers that need Q(up(D)) ≟ Q(D)
// compare the two correction multisets: the outputs differ iff
// outMinus ≢ outPlus (signed counts cancel exactly when the bags match).
//
// DISTINCT queries are handled one level up: RunDelta never applies the
// deduplication step, so for a DISTINCT query the correction terms are
// deltas of the pre-DISTINCT core multiset; the disagreement checker nets
// them against a cached multiplicity view (ivm.go) to decide set-level
// change. The tier matrix (analyze.DeltaTier) encodes which of these
// modes applies per (query, relation).

// DeltaTier reports the incremental tier RunDelta offers for updates of
// rel: DeltaFull (first-order rewrite alone is exact), DeltaPartial
// (DISTINCT and/or self-joins — correction terms must be resolved against
// materialized intermediates), or DeltaNone (aggregation at this level,
// ORDER BY, LIMIT, HAVING, derived tables, subqueries, or rel absent).
// It replaces the old boolean DeltaCapable predicate.
func (q *Query) DeltaTier(rel string) analyze.DeltaTier {
	return q.A.DeltaTierOf(rel)
}

// RunDelta evaluates the effect of replacing rows `minus` by rows `plus`
// in relation rel, returning the negative and positive correction terms.
// Either side may be nil (pure insertion/deletion deltas). The query's
// DeltaTier for rel must not be DeltaNone.
func (q *Query) RunDelta(db *storage.Database, rel string, minus, plus [][]value.Value) (outMinus, outPlus [][]value.Value, err error) {
	if q.DeltaTier(rel) == analyze.DeltaNone {
		return nil, nil, fmt.Errorf("delta execution does not apply to %q for updates of %q", q.SQL, rel)
	}
	srcs := q.A.SourcesOf(rel)
	if len(srcs) == 1 {
		// Single occurrence: the two first-order terms, via a name-keyed
		// override (equivalent to a sov on the only slot).
		name := ast.LowerName(rel)
		outMinus, err = q.deltaSide(db, name, minus)
		if err != nil {
			return nil, nil, err
		}
		outPlus, err = q.deltaSide(db, name, plus)
		if err != nil {
			return nil, nil, err
		}
		return outMinus, outPlus, nil
	}
	return q.deltaExpand(db, srcs, minus, plus)
}

// deltaSide runs the query with rel replaced by the given delta rows,
// returning projected output rows. A nil/empty delta yields no output
// without touching the executor.
func (q *Query) deltaSide(db *storage.Database, rel string, delta [][]value.Value) ([][]value.Value, error) {
	if len(delta) == 0 {
		return nil, nil
	}
	return q.rawRows(db, Overrides{rel: delta}, nil)
}

// deltaExpand emits the higher-order correction terms for a relation
// occurring at the k = len(srcs) top-level sources: every assignment of
// {base, minus, plus} to the k slots except all-base, enumerated in a
// fixed ternary order so the output row order — and therefore any
// floating-point accumulation over it — is deterministic. Terms that
// would substitute an empty delta side are skipped (they are empty).
func (q *Query) deltaExpand(db *storage.Database, srcs []int, minus, plus [][]value.Value) (outMinus, outPlus [][]value.Value, err error) {
	k := len(srcs)
	total := 1
	for i := 0; i < k; i++ {
		total *= 3
	}
	asn := make([]int, k) // 0 = base, 1 = minus, 2 = plus
	for code := 1; code < total; code++ {
		c := code
		skip := false
		negs := 0
		for i := 0; i < k; i++ {
			asn[i] = c % 3
			c /= 3
			switch asn[i] {
			case 1:
				negs++
				if len(minus) == 0 {
					skip = true
				}
			case 2:
				if len(plus) == 0 {
					skip = true
				}
			}
		}
		if skip {
			continue
		}
		sov := make(map[int][][]value.Value, k)
		for i, s := range srcs {
			switch asn[i] {
			case 1:
				sov[s] = minus
			case 2:
				sov[s] = plus
			}
		}
		rows, rerr := q.rawRows(db, nil, sov)
		if rerr != nil {
			return nil, nil, rerr
		}
		if negs%2 == 1 {
			outMinus = append(outMinus, rows...)
		} else {
			outPlus = append(outPlus, rows...)
		}
	}
	return outMinus, outPlus, nil
}

// rawRows joins and projects the query under the given overrides WITHOUT
// the DISTINCT / ORDER BY / LIMIT epilogue: the raw core-row multiset the
// delta rewrites are defined over. The query must not aggregate.
func (q *Query) rawRows(db *storage.Database, ov Overrides, sov map[int][][]value.Value) ([][]value.Value, error) {
	var out [][]value.Value
	err := q.eachRow(db, ov, sov, func(row []value.Value) {
		out = append(out, slices.Clone(row))
	})
	return out, err
}

// ForEachRow streams the raw core rows of a non-aggregating query over db
// (no DISTINCT / ORDER BY / LIMIT epilogue): every joined tuple of its
// FROM/WHERE is projected into one reused buffer and handed to visit, so
// no row set or Result is built. visit must copy whatever it keeps.
func (q *Query) ForEachRow(db *storage.Database, visit func(row []value.Value)) error {
	if q.A.IsAgg {
		return fmt.Errorf("row streaming requires a non-aggregating query, got %q", q.SQL)
	}
	return q.eachRow(db, nil, nil, visit)
}

// eachRow is ForEachRow under overrides: the one projection loop behind
// the delta terms and the materialized views.
func (q *Query) eachRow(db *storage.Database, ov Overrides, sov map[int][][]value.Value, visit func(row []value.Value)) error {
	r := &runner{q: q, db: db, ov: ov, sov: sov}
	tuples, err := r.joinPhase(q.A, nil)
	if err != nil {
		return err
	}
	row := make([]value.Value, len(q.A.OutCols))
	env := &env{a: q.A}
	for _, tup := range tuples {
		env.tuples = tup
		env.itemVals = nil
		if err := r.projectInto(q.A, env, row); err != nil {
			return err
		}
		visit(row)
	}
	return nil
}
