package qirana

// Degraded-mode quotes (DESIGN.md §14). When a shard's slice is
// unreachable past the fan-out's retry budget, an exact quote cannot be
// assembled — but a SOUND one can: the dead slices are priced exactly
// like unsampled weight in the PR 9 approximate machinery, using the
// live slices as the "sample". The coverage estimator charges every
// missing element as if it disagreed (its weight in full); the entropy
// estimators refine every missing element into its own partition
// (maximum information). Both are the worst case the buyer could have
// learned from the missing slice, so
//
//	degraded price ≥ exact price
//
// for all four pricing functions, and the arbitrage-freeness argument
// for approximate quotes (internal/pricing/approx.go) carries over
// unchanged. The quote is served with provenance — degraded: true, the
// missing-slice fraction, point estimate and CI — and cached under the
// same "a|" key as a sampled quote, so the background refiner and the
// purchase-time reconcile settle it to the exact price once the cluster
// heals. Purchases never take this path: charging requires the exact
// sweep, so a purchase during an outage still fails 503 and no partial
// merge ever charges a buyer.

import (
	"context"
	"errors"

	"qirana/internal/sqlengine/exec"
)

// canDegrade reports whether a failed sweep may fall back to a degraded
// quote: degradation enabled, the caller still waiting, and the failure a
// shard outage (not a bad request) — which only a router's remote sweep
// can raise.
func (b *Broker) canDegrade(ctx context.Context, err error) bool {
	return !b.opts.DisableDegradedQuotes && ctx.Err() == nil && errors.Is(err, ErrShardUnavailable)
}

// degradedQuoteLocked prices qs as one bundle with part of the cluster
// unreachable, serving the upper bound described above. An existing
// "a|" entry (refined or sampled) short-circuits the sweep — a cached
// sound answer beats re-walking a broken cluster. Callers hold mu.RLock.
func (b *Broker) degradedQuoteLocked(ctx context.Context, fn PricingFunc, qs []*exec.Query, maxErr float64) (QuoteInfo, error) {
	key := b.approxKey(fn, qs)
	v, cached, err := b.cached(ctx, key, func() (any, error) {
		return b.approxSweep(ctx, fn, qs, SweepSpec{Degraded: true})
	})
	if err != nil {
		return QuoteInfo{}, err
	}
	ent := v.(approxEntry)
	if !ent.refined {
		// Fresh or cached, keep the refiner armed: the upgrade to exact
		// only succeeds once the cluster heals, and each failed attempt
		// is dropped, not requeued.
		b.enqueueRefine(key, fn, sqlsOf(qs))
	}
	return b.approxInfo(ent, cached, maxErr), nil
}

// missingFrac is the fraction of support-set elements whose slice did
// not answer.
func missingFrac(live []bool) float64 {
	if len(live) == 0 {
		return 0
	}
	miss := 0
	for _, ok := range live {
		if !ok {
			miss++
		}
	}
	return float64(miss) / float64(len(live))
}
