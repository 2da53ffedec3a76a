package pricing

import (
	"context"

	"qirana/internal/pool"
	"qirana/internal/storage"
)

// Shared-read parallel evaluation: Algorithm 1's loop is embarrassingly
// parallel across support elements — each element is an independent
// evaluation of Q over a neighboring instance. Elements are realized as
// copy-on-write overlays (storage.Overlay) instead of in-place mutations,
// so any number of workers evaluate concurrently over ONE immutable
// database: per-element cost is O(|delta|), not a full O(|D|) clone per
// worker, and peak memory no longer scales with workers × |D|.
//
// The same pool.RunWorkers scheduler drives the disagreement checker's
// batched fast path (disagree.Checker.Workers), so Options.Workers is the
// single parallelism knob for the whole engine. Work is handed out through
// an atomic index (work stealing), so skewed elements cannot idle workers.

// parallelWorkers resolves the configured worker count (clamped to
// GOMAXPROCS; ≤ 1 means serial).
func (e *Engine) parallelWorkers() int {
	if e.Opts.Workers <= 1 {
		return 1
	}
	return pool.Clamp(e.Opts.Workers, -1)
}

// parallelApplyCtx runs fn(overlay, elementIndex) for every live element.
// Each worker owns one overlay over the shared database; fn must leave the
// overlay as it found it (the usual apply/undo discipline, now against the
// overlay). With one worker the elements run inline in index order, so the
// serial path is bit-identical to the parallel one by construction. The
// pool polls ctx between elements, so a cancelled sweep stops after the
// in-flight elements finish their apply/run/undo cycle.
func (e *Engine) parallelApplyCtx(ctx context.Context, mask []bool, fn func(o *storage.Overlay, i int) error) error {
	var live []int
	for i := range e.Set.Elements {
		if mask == nil || mask[i] {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil
	}
	workers := pool.Clamp(e.parallelWorkers(), len(live))
	overlays := make([]*storage.Overlay, workers)
	return pool.RunWorkersCtx(ctx, workers, len(live), func(w, k int) error {
		o := overlays[w]
		if o == nil {
			o = storage.NewOverlay(e.DB)
			overlays[w] = o
		}
		return fn(o, live[k])
	})
}
