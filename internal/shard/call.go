package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"qirana"
)

// call runs one shard's slice request under the fault policy: breaker
// admission, hedging, and up to MaxAttempts tries separated by
// jittered exponential backoff. The error-classification contract:
//
//   - parent ctx done → the CALLER gave up: propagate parent.Err()
//     verbatim — no retry, no hedge, no breaker accounting.
//   - group ctx done (a sibling failed and cancelled the fan-out) →
//     propagate without accounting: this shard did nothing wrong.
//   - input-class answers (400 bad request, 409 support mismatch) →
//     propagate without retrying: the request fails on any replica.
//   - everything else is a shard fault: it counts toward the breaker
//     and is retried while attempts remain.
//
// Shard sweeps are read-only, so retries and hedges are idempotent by
// construction, and the shard-side slice cache single-flights
// duplicates of the same request.
func (f *Fanout) call(ctx, parent context.Context, i int, sqls []string, spec qirana.SweepSpec) (*qirana.SweepSliceResponse, error) {
	br := f.breakers[i]
	var lastErr error
	for attempt := 0; attempt < f.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !sleepCtx(ctx, f.backoff(attempt-1)) {
				if parent.Err() != nil {
					return nil, parent.Err()
				}
				return nil, lastErr // sibling cancel mid-backoff: keep the real fault
			}
			f.obs.Add("router_retries", 1)
		}
		ok, probe, wait := br.allow(time.Now())
		if !ok {
			// Open breaker: fail fast with the remaining cooldown —
			// retrying into a known-dead shard just burns the deadline.
			f.obs.Add("breaker_rejects", 1)
			return nil, &breakerOpenError{shard: i, url: f.urls[i], wait: wait}
		}
		if probe {
			f.obs.Add("breaker_probes", 1)
			if err := f.probeShard(ctx, i); err != nil {
				switch {
				case parent.Err() != nil:
					br.releaseProbe()
					return nil, parent.Err()
				case ctx.Err() != nil:
					br.releaseProbe()
					return nil, err
				case !errors.Is(err, qirana.ErrShardUnavailable):
					// Identity mismatch: the shard is healthy but wrong;
					// reopen so it keeps failing fast until rebuilt.
					if br.failure(time.Now()) {
						f.obs.Add("breaker_open", 1)
					}
					return nil, err
				default:
					if br.failure(time.Now()) {
						f.obs.Add("breaker_open", 1)
					}
					lastErr = err
					continue
				}
			}
		}
		start := time.Now()
		resp, err := f.hedgedPost(ctx, parent, i, sqls, spec)
		if err == nil {
			if br.success() {
				f.obs.Add("breaker_close", 1)
			}
			f.lat.observe(time.Since(start))
			return resp, nil
		}
		if parent.Err() != nil {
			br.releaseProbe()
			return nil, parent.Err()
		}
		if ctx.Err() != nil {
			br.releaseProbe()
			return nil, err
		}
		if !errors.Is(err, qirana.ErrShardUnavailable) {
			br.releaseProbe()
			return nil, err
		}
		if br.failure(time.Now()) {
			f.obs.Add("breaker_open", 1)
		}
		lastErr = err
	}
	return nil, lastErr
}

// probeShard is the half-open health probe: GET /shard/info, verifying
// the shard still serves the identity the cluster was connected with.
func (f *Fanout) probeShard(ctx context.Context, i int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.urls[i]+"/v1/shard/info", nil)
	if err != nil {
		return fmt.Errorf("%w: health probe: %v", qirana.ErrShardUnavailable, err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: health probe: %v", qirana.ErrShardUnavailable, err)
	}
	var info Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: health probe returned status %d", qirana.ErrShardUnavailable, resp.StatusCode)
	}
	if info != f.info {
		return fmt.Errorf("%w: shard %d (%s) now holds gen=%d sum=%016x size=%d but the cluster was connected at gen=%d sum=%016x size=%d",
			qirana.ErrSupportMismatch, i, f.urls[i], info.SupportGen, info.SupportSum, info.Size,
			f.info.SupportGen, f.info.SupportSum, f.info.Size)
	}
	return nil
}

// hedgedPost sends the slice request and — unless hedging is off or the
// latency signal is cold — arms one duplicate RPC that fires if the
// first copy has not answered within the hedge delay. First answer
// wins; the loser is cancelled. Duplicates are cheap: the shard's slice
// cache single-flights concurrent identical requests, so a losing hedge
// costs a coalesced cache lookup, not a second sweep.
func (f *Fanout) hedgedPost(ctx, parent context.Context, i int, sqls []string, spec qirana.SweepSpec) (*qirana.SweepSliceResponse, error) {
	delay := f.hedgeDelay()
	if delay <= 0 {
		return f.post(ctx, parent, i, sqls, spec)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp *qirana.SweepSliceResponse
		err  error
		dup  bool
	}
	ch := make(chan result, 2)
	send := func(dup bool) {
		resp, err := f.post(hctx, parent, i, sqls, spec)
		ch <- result{resp, err, dup}
	}
	go send(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedged := false
	for pending := 1; pending > 0; {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				f.obs.Add("router_hedges", 1)
				pending++
				go send(true)
			}
		case res := <-ch:
			pending--
			if res.err == nil {
				if res.dup {
					f.obs.Add("router_hedge_wins", 1)
				}
				return res.resp, nil
			}
			if pending == 0 {
				return nil, res.err
			}
			// One copy failed; the other is still in flight — wait for
			// it rather than giving up on a result we already paid for.
		}
	}
	return nil, ctx.Err()
}

// hedgeDelay computes the duplicate-RPC delay: the fixed HedgeAfter
// override, or the adaptive signal — slice-latency EWMA plus the
// straggler-gap EWMA (the spread published as router_straggler_gap) —
// floored at HedgeMin. Zero means "do not hedge this call"; a cold
// fan-out with no latency history never hedges.
func (f *Fanout) hedgeDelay() time.Duration {
	if f.policy.DisableHedging {
		return 0
	}
	if f.policy.HedgeAfter > 0 {
		return f.policy.HedgeAfter
	}
	lat := f.lat.value()
	if lat <= 0 {
		return 0
	}
	d := lat + f.gap.value()
	if d < f.policy.HedgeMin {
		d = f.policy.HedgeMin
	}
	return d
}
