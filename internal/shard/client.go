package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"qirana"
	"qirana/internal/durable"
	"qirana/internal/obs"
	"qirana/internal/support"
)

// Info is a shard's identity, served on GET /shard/info and verified at
// connect time: a cluster is only usable when every shard prices the
// same support set.
type Info struct {
	SupportGen uint64 `json:"support_gen"`
	SupportSum uint64 `json:"support_sum"`
	Size       int    `json:"size"`
}

// Fanout is the router's qirana.Sweeper: it splits every cold sweep
// across the connected shards (one contiguous slice each, per Assign),
// runs the slice requests concurrently, and reassembles the per-element
// vectors in shard order. Each slice request runs under the installed
// FaultPolicy — jittered-backoff retries, hedging, and a per-shard
// circuit breaker (breaker.go) — but an exact sweep itself stays
// all-or-nothing: one slice exhausting its budget aborts the whole
// fan-out as qirana.ErrShardUnavailable (503 + Retry-After), so a
// partially merged exact price is never returned. Partial results are
// only ever surfaced by an explicitly Degraded sweep, which reports the
// missing slices through its live mask for the broker to price as
// unsampled weight.
type Fanout struct {
	urls   []string
	ranges []Range
	info   Info
	client *http.Client
	obs    *obs.Registry // nil-safe; installed via AttachObs

	policy   FaultPolicy
	breakers []*breaker
	lat      ewma // successful slice-request latency (adaptive hedging)
	gap      ewma // straggler gap per fan-out (adaptive hedging)
	rngMu    sync.Mutex
	rng      *rand.Rand // backoff jitter; guarded by rngMu
}

// Connect performs the cluster handshake: it fetches /shard/info from
// every URL, requires all shards to agree on the support set (gen,
// checksum, size), and fixes the slice assignment. client may be nil
// (http.DefaultClient).
func Connect(ctx context.Context, urls []string, client *http.Client) (*Fanout, error) {
	if len(urls) == 0 {
		return nil, errors.New("shard fan-out needs at least one shard URL")
	}
	if client == nil {
		client = http.DefaultClient
	}
	f := &Fanout{urls: urls, client: client, rng: newJitterRNG(time.Now().UnixNano())}
	f.SetPolicy(DefaultFaultPolicy())
	for i, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/shard/info", nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", i, u, err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d (%s): %v", qirana.ErrShardUnavailable, i, u, err)
		}
		var info Info
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%w: shard %d (%s): info returned status %d", qirana.ErrShardUnavailable, i, u, resp.StatusCode)
		}
		if i == 0 {
			f.info = info
		} else if info != f.info {
			return nil, fmt.Errorf("%w: shard %d (%s) holds gen=%d sum=%016x size=%d but shard 0 holds gen=%d sum=%016x size=%d",
				qirana.ErrSupportMismatch, i, u, info.SupportGen, info.SupportSum, info.Size,
				f.info.SupportGen, f.info.SupportSum, f.info.Size)
		}
	}
	f.ranges = Assign(f.info.Size, len(urls))
	return f, nil
}

// Info returns the cluster identity agreed at connect time.
func (f *Fanout) Info() Info { return f.info }

// Shards returns the number of connected shards.
func (f *Fanout) Shards() int { return len(f.urls) }

// SetPolicy installs a fault policy and resets every shard's circuit
// breaker. Call it after Connect and before serving traffic; it is not
// synchronized against in-flight sweeps.
func (f *Fanout) SetPolicy(p FaultPolicy) {
	f.policy = p.sane()
	f.breakers = make([]*breaker, len(f.urls))
	for i := range f.breakers {
		f.breakers[i] = newBreaker(f.policy.BreakerThreshold, f.policy.BreakerCooldown)
	}
}

// Policy returns the installed fault policy.
func (f *Fanout) Policy() FaultPolicy { return f.policy }

// AttachObs wires the fan-out's counters and latencies into the
// router's metrics registry (qirana.SetRemoteSweeper calls it):
//
//	router_fanout_rpcs       shard RPCs issued
//	router_shard_errors      failed shard RPCs
//	router_retries           retry attempts launched after a shard fault
//	router_hedges            duplicate (hedged) RPCs fired
//	router_hedge_wins        hedged duplicates that answered first
//	router_degraded_sweeps   fan-outs that completed with missing slices
//	breaker_open             breaker trips (closed/half-open → open)
//	breaker_close            breaker recoveries (→ closed)
//	breaker_probes           half-open health probes issued
//	breaker_rejects          requests failed fast by an open breaker
//	router_fanout            whole fan-out latency (slowest shard)
//	router_merge             slice reassembly latency
//	router_straggler_gap     slowest minus fastest shard per fan-out
func (f *Fanout) AttachObs(r *obs.Registry) { f.obs = r }

// Sweep implements qirana.Sweeper. Every shard gets its slice request
// concurrently. An exact sweep cancels the outstanding requests on the
// first exhausted budget and fails: it either returns every slice or
// nothing. A Degraded sweep gives every shard its own full retry budget
// and no sibling cancellation, and keeps whatever slices answered: the
// result's Live mask leaves out the dead slices, which are zero-filled
// and contribute nothing to Stats. At least one slice must survive.
// Input-class failures (400/409) and the caller's own cancellation abort
// either kind: degrading cannot fix a bad request, and a partial answer
// would only hide it. A sampled sweep's Live is the sample mask every
// shard swept.
func (f *Fanout) Sweep(parent context.Context, sqls []string, spec qirana.SweepSpec) (qirana.SweepResult, error) {
	if spec.SupportGen != f.info.SupportGen {
		return qirana.SweepResult{}, fmt.Errorf("%w: router prices support gen %d but the cluster was connected at gen %d (a resample requires rebuilding the cluster)",
			qirana.ErrSupportMismatch, spec.SupportGen, f.info.SupportGen)
	}
	if spec.Degraded && spec.Sampled() {
		// The live mask marks whole slices as swept; degrading a sampled
		// sweep would have to intersect the two.
		return qirana.SweepResult{}, errors.New("degraded sweeps are exact per slice; sampled specs are not supported")
	}
	resps, err := f.fanout(parent, sqls, spec)
	if err != nil {
		return qirana.SweepResult{}, err
	}
	defer f.obs.Timer("router_merge")()
	nOut := outputs(sqls, spec.Bundle)
	res := qirana.SweepResult{Stats: make([]qirana.Stats, nOut)}
	for j := 0; j < nOut; j++ {
		if spec.Hashes {
			res.Hashes = append(res.Hashes, make([]uint64, f.info.Size))
		} else {
			res.Bits = append(res.Bits, make([]bool, f.info.Size))
		}
	}
	switch {
	case spec.Sampled():
		res.Live = support.SampleMask(f.info.Size, spec.SampleFrac, spec.SampleSeed, spec.SupportGen)
	case spec.Degraded:
		res.Live = make([]bool, f.info.Size)
	}
	for i, resp := range resps {
		if resp == nil {
			continue // a dead slice of a degraded sweep
		}
		r := f.ranges[i]
		for j := 0; j < nOut; j++ {
			if spec.Hashes {
				copy(res.Hashes[j][r.Lo:r.Hi], resp.Hashes[j])
			} else {
				copy(res.Bits[j][r.Lo:r.Hi], durable.UnpackBits(resp.Bits[j], r.Width()))
			}
			res.Stats[j].Add(resp.Stats[j])
		}
		if spec.Degraded {
			for x := r.Lo; x < r.Hi; x++ {
				res.Live[x] = true
			}
		}
	}
	return res, nil
}

// SweepBits is Sweep for disagreement bitmaps.
func (f *Fanout) SweepBits(ctx context.Context, sqls []string, spec qirana.SweepSpec) ([][]bool, []qirana.Stats, error) {
	spec.Hashes = false
	res, err := f.Sweep(ctx, sqls, spec)
	return res.Bits, res.Stats, err
}

func outputs(sqls []string, bundle bool) int {
	if bundle {
		return 1
	}
	return len(sqls)
}

// fanout sends one slice request to every shard concurrently, each
// under the fault policy's retry/hedge/breaker budget (call, in
// call.go), and returns the responses in shard order. In an exact sweep
// the first exhausted budget cancels the outstanding requests and fails
// the fan-out; in a degraded one a shard fault leaves that slice's
// response nil, and only all shards failing is an error.
func (f *Fanout) fanout(parent context.Context, sqls []string, spec qirana.SweepSpec) ([]*qirana.SweepSliceResponse, error) {
	f.obs.Add("router_fanout_rpcs", uint64(len(f.urls)))
	defer f.obs.Timer("router_fanout")()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	resps := make([]*qirana.SweepSliceResponse, len(f.urls))
	errs := make([]error, len(f.urls))
	durs := make([]time.Duration, len(f.urls))
	var wg sync.WaitGroup
	for i := range f.urls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resps[i], errs[i] = f.call(ctx, parent, i, sqls, spec)
			durs[i] = time.Since(start)
			if errs[i] != nil && !spec.Degraded {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	// Prefer a root-cause error over the cancellations it induced in the
	// sibling requests (and, degraded, a fault that may carry a breaker's
	// Retry-After hint for the all-shards-down answer).
	var firstErr error
	alive := 0
	for i, err := range errs {
		if err == nil {
			alive++
			continue
		}
		f.obs.Add("router_shard_errors", 1)
		err = fmt.Errorf("shard %d (%s): %w", i, f.urls[i], err)
		if spec.Degraded && !errors.Is(err, qirana.ErrShardUnavailable) {
			return nil, err
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr == nil {
		gap := slices.Max(durs) - slices.Min(durs)
		f.obs.Observe("router_straggler_gap", gap)
		f.gap.observe(gap)
		return resps, nil
	}
	if !spec.Degraded || alive == 0 {
		return nil, firstErr
	}
	f.obs.Add("router_degraded_sweeps", 1)
	return resps, nil
}

// post sends one shard its slice request and classifies the outcome:
// 400 is the shard judging the INPUT bad (forwarded as a plain error →
// the router answers 400 too), 409 is a support-set mismatch, and
// everything else — transport errors, timeouts, 5xx, torn bodies — is
// the SHARD being unavailable (→ 503, retryable). The one exception:
// when the PARENT context is done, the caller gave up, and post
// propagates parent.Err() verbatim — a client hanging up must never be
// billed to the shard's breaker or spent from the retry budget. (ctx
// here may be a derived group/hedge context; its cancellation means a
// sibling aborted the fan-out, which likewise is not this shard's
// fault.)
func (f *Fanout) post(ctx, parent context.Context, i int, sqls []string, spec qirana.SweepSpec) (*qirana.SweepSliceResponse, error) {
	r := f.ranges[i]
	sreq := qirana.SweepSliceRequest{
		SQLs: sqls, Bundle: spec.Bundle, Hashes: spec.Hashes,
		Lo: r.Lo, Hi: r.Hi,
		SupportGen: spec.SupportGen, SupportSum: f.info.SupportSum,
	}
	if spec.Sampled() {
		sreq.SampleFrac, sreq.SampleSeed = spec.SampleFrac, spec.SampleSeed
	}
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.urls[i]+"/v1/shard/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := f.client.Do(req)
	if err != nil {
		if parent.Err() != nil {
			return nil, parent.Err()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", qirana.ErrShardUnavailable, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg := readErrorMessage(httpResp.Body)
		switch {
		case httpResp.StatusCode == http.StatusBadRequest:
			return nil, errors.New(msg)
		case httpResp.StatusCode == http.StatusConflict:
			return nil, fmt.Errorf("%w: %s", qirana.ErrSupportMismatch, msg)
		default:
			return nil, fmt.Errorf("%w: status %d: %s", qirana.ErrShardUnavailable, httpResp.StatusCode, msg)
		}
	}
	var resp qirana.SweepSliceResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		if parent.Err() != nil {
			return nil, parent.Err()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: decode sweep response: %v", qirana.ErrShardUnavailable, err)
	}
	if err := checkSlice(&resp, r, outputs(sqls, spec.Bundle), spec.Hashes); err != nil {
		return nil, fmt.Errorf("%w: %v", qirana.ErrShardUnavailable, err)
	}
	return &resp, nil
}

// checkSlice verifies that a decoded slice answer has exactly the shape
// the merge reads: the asked-for bounds, one vector per output of the
// slice's width (packed bits or hashes), and one Stats per output. A
// short answer would otherwise panic the merge or, for bits, unpack its
// missing tail as "agree" and price below exact.
func checkSlice(resp *qirana.SweepSliceResponse, r Range, nOut int, hashes bool) error {
	if resp.Lo != r.Lo || resp.Hi != r.Hi {
		return fmt.Errorf("asked for slice [%d, %d) but got [%d, %d)", r.Lo, r.Hi, resp.Lo, resp.Hi)
	}
	if len(resp.Stats) != nOut {
		return fmt.Errorf("returned %d stats, want %d", len(resp.Stats), nOut)
	}
	if hashes {
		if len(resp.Hashes) != nOut {
			return fmt.Errorf("returned %d hash vectors, want %d", len(resp.Hashes), nOut)
		}
		for _, h := range resp.Hashes {
			if len(h) != r.Width() {
				return fmt.Errorf("returned %d hashes for slice of width %d", len(h), r.Width())
			}
		}
		return nil
	}
	if len(resp.Bits) != nOut {
		return fmt.Errorf("returned %d bit vectors, want %d", len(resp.Bits), nOut)
	}
	for _, b := range resp.Bits {
		if len(b) != (r.Width()+7)/8 {
			return fmt.Errorf("returned %d packed bytes for slice of width %d", len(b), r.Width())
		}
	}
	return nil
}

// readErrorMessage extracts the error body — either the typed
// {"error":{"code":...,"message":...}} object the /v1 surface writes or
// the legacy {"error":"..."} flat string — falling back to the raw text.
func readErrorMessage(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var typed struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &typed) == nil && typed.Error.Message != "" {
		return typed.Error.Message
	}
	var flat struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &flat) == nil && flat.Error != "" {
		return flat.Error
	}
	return string(bytes.TrimSpace(data))
}
