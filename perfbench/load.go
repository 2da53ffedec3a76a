package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func nproc() int { return runtime.NumCPU() }

// client sends requests over at most conns loopback connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

func (c *client) post(ctx context.Context, path string, body []byte, traceHdr string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHdr != "" {
		req.Header.Set(traceHeader, traceHdr)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serve sends rq and returns the served amount: the quoted price, or the
// net charge of a purchase. A request fails when it errors, is refused,
// or is answered with an estimate (approximate, degraded or shed) where
// the workload asked for an exact price.
func (c *client) serve(ctx context.Context, rq *request, body []byte, traceHdr string) (float64, bool) {
	path := "/v1/quote"
	if rq.Kind == kindAsk {
		path = "/v1/ask"
	}
	status, data, err := c.post(ctx, path, body, traceHdr)
	if err != nil || status != http.StatusOK {
		return 0, false
	}
	if rq.Kind == kindAsk {
		var rec struct {
			Net *float64 `json:"net"`
		}
		if json.Unmarshal(data, &rec) != nil || rec.Net == nil {
			return 0, false
		}
		return *rec.Net, true
	}
	var pr struct {
		Total    float64 `json:"total"`
		PerQuery []struct {
			Estimate json.RawMessage `json:"estimate"`
		} `json:"per_query"`
	}
	if json.Unmarshal(data, &pr) != nil || len(pr.PerQuery) != 1 || pr.PerQuery[0].Estimate != nil {
		return 0, false
	}
	return pr.Total, true
}

// stream is a generated request sequence: seq indexes distinct, so a
// long run over a small pool costs four bytes per request.
type stream struct {
	distinct []request
	bodies   [][]byte // JSON body of each distinct request
	seq      []int32
}

// newStream draws n requests from the stack's source.
func newStream(st *stack, n int) *stream {
	s := &stream{seq: make([]int32, n)}
	index := map[string]int32{}
	for i := range s.seq {
		rq := st.src.next()
		b := st.body(&rq)
		k, ok := index[string(b)]
		if !ok {
			k = int32(len(s.distinct))
			index[string(b)] = k
			s.distinct = append(s.distinct, rq)
			s.bodies = append(s.bodies, b)
		}
		s.seq[i] = k
	}
	return s
}

func (s *stream) at(pos int) *request { return &s.distinct[s.seq[pos]] }

// outcome is one request's result. Latency is +Inf for a failure. at is
// when an open-loop request was due, from the phase's start.
type outcome struct {
	lat    time.Duration
	at     time.Duration
	served float64
	ok     bool
	traced bool
}

func (o outcome) latMS() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return float64(o.lat) / 1e6
}

// traceEvery: in a traced run every other request carries spans, so
// traced and untraced requests share the same load.
const traceEvery = 2

// openResult is the open-loop phase: outcomes align with the requests
// that came due; late holds how late the generator sent each one.
type openResult struct {
	outcomes []outcome
	late     []float64 // ns
	unsent   int
}

// openLoop sends seeded Poisson arrivals at rate per second for d over
// at most conns connections. Each request is timed from its due time,
// so a stall charges every request that queued behind it. Requests
// still unsent (or in flight) at d plus a grace period count as failed.
// With tr set, every traceEvery-th request records client spans.
func openLoop(c *client, s *stream, rate float64, d time.Duration, seed int64, conns int, tr *tracer) openResult {
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e))
	type job struct {
		i   int32
		due time.Duration // after start
	}
	var dues []time.Duration
	for t := 0.0; len(dues) < len(s.seq); {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			break
		}
		dues = append(dues, time.Duration(t*1e9))
	}
	res := openResult{outcomes: make([]outcome, len(dues)), late: make([]float64, len(dues))}
	jobs := make(chan job, len(dues))
	start := time.Now().Add(10 * time.Millisecond)
	hardStop := start.Add(d + max(2*time.Second, d/4))
	ctx, cancel := context.WithDeadline(context.Background(), hardStop)
	defer cancel()
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue
				}
				sent.Add(1)
				due := start.Add(j.due)
				k := s.seq[j.i]
				rq := &s.distinct[k]
				traced := tr != nil && int(j.i)%traceEvery == 1
				var hdr string
				var rootID, rtID int64
				if traced {
					rootID, rtID = tr.id(), tr.id()
					hdr = fmt.Sprintf("%d/%d", rtID, j.i)
				}
				sendAt := time.Now()
				served, ok := c.serve(ctx, rq, s.bodies[k], hdr)
				end := time.Now()
				if traced {
					tr.add(rootID, 0, int64(j.i), "loadgen.request", due, end)
					tr.add(tr.id(), rootID, int64(j.i), "loadgen.queue", due, sendAt)
					tr.add(rtID, rootID, int64(j.i), "loadgen.transport", sendAt, end)
				}
				res.outcomes[j.i] = outcome{served: served, ok: ok, lat: end.Sub(due), at: j.due, traced: traced}
			}
		}()
	}
	for i, off := range dues {
		due := start.Add(off)
		waitUntil(due)
		res.late[i] = float64(time.Since(due))
		jobs <- job{int32(i), off}
	}
	close(jobs)
	wg.Wait()
	res.unsent = len(dues) - int(sent.Load())
	return res
}

// waitUntil returns at t. Go timers overshoot short waits by up to a
// millisecond (the poller sleeps in whole milliseconds), which would
// charge every warm request that much generator lateness, so the last
// few milliseconds are slept in the kernel instead.
func waitUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		if wait > 3*time.Millisecond {
			time.Sleep(wait - 2*time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// closedResult is the closed-loop phase: each client sends its next
// request only after the previous one completes. It keeps counts, not
// one record per request, so the harness's heap does not grow with the
// throughput it measures; kept holds each client's first outcomes for
// the price checks.
type closedResult struct {
	attempted, failed int
	okAsks            int   // acknowledged purchases
	okPerWindow       []int // completions by completion time
	kept              []keptOutcome
	elapsed           time.Duration
}

type keptOutcome struct {
	pos int // stream position
	outcome
}

// keepPerClient bounds the outcomes a client keeps for the checks.
const keepPerClient = 4096

// completedPerSec is the median over windows of the phase of the
// requests completed per second, so a burst of interference from outside
// the process moves one window rather than the whole figure.
func (r closedResult) completedPerSec() float64 {
	width := r.elapsed.Seconds() / float64(len(r.okPerWindow))
	rates := make([]float64, len(r.okPerWindow))
	for i, n := range r.okPerWindow {
		rates[i] = float64(n) / width
	}
	return median(rates)
}

func closedLoop(c *client, s *stream, clients int, d time.Duration) closedResult {
	var next atomic.Int64
	var mu sync.Mutex
	res := closedResult{okPerWindow: make([]int, windows)}
	start := time.Now()
	deadline := start.Add(d)
	width := d / windows
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var attempted, failed, asks int
			ok := make([]int, windows)
			var kept []keptOutcome
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(s.seq)
				k := s.seq[i]
				t0 := time.Now()
				served, good := c.serve(context.Background(), &s.distinct[k], s.bodies[k], "")
				end := time.Now()
				attempted++
				if !good {
					failed++
				} else {
					ok[min(int(end.Sub(start)/width), windows-1)]++
					if s.distinct[k].Kind == kindAsk {
						asks++
					}
				}
				if len(kept) < keepPerClient {
					kept = append(kept, keptOutcome{i, outcome{served: served, ok: good, lat: end.Sub(t0)}})
				}
			}
			mu.Lock()
			res.attempted += attempted
			res.failed += failed
			res.okAsks += asks
			for i, n := range ok {
				res.okPerWindow[i] += n
			}
			res.kept = append(res.kept, kept...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// heapSampler samples the live Go heap (the bytes each GC cycle marks
// live) until stopped. The live heap is what the broker's data and caches
// hold; unlike the heap in use it does not depend on where in its GC
// cycle a sample happens to land.
type heapSampler struct {
	samples []uint64
	stop    chan struct{}
	done    chan struct{}
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, sample[0].Value.Uint64())
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MB: the median over
// equal windows of the samples of each window's peak. A GC cycle's live
// heap also holds what was allocated while it marked, so the peak of a
// single cycle depends on how many requests were in flight; the median
// over windows does not rest on that one cycle.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	var peaks []float64
	for i := 0; i < windows; i++ {
		if w := h.samples[i*len(h.samples)/windows : (i+1)*len(h.samples)/windows]; len(w) > 0 {
			peaks = append(peaks, float64(slices.Max(w)))
		}
	}
	return median(peaks) / (1 << 20)
}
