package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span whose ID was reserved earlier (so children could
// name it as their parent before it ended).
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a new span and returns its duration.
func (t *tracer) timed(name string, parent, req int64, f func()) time.Duration {
	id := t.id()
	start := time.Now()
	f()
	end := time.Now()
	t.add(id, parent, req, name, start, end)
	return end.Sub(start)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfStat aggregates one span name's self time: its duration minus the
// part of its interval that child spans cover.
type selfStat struct {
	Count        int     `json:"count"`
	TotalSelfMS  float64 `json:"total_self_ms"`
	MedianSelfUS float64 `json:"median_self_us"`
	MedianDurUS  float64 `json:"median_dur_us"`
}

func (t *tracer) selfTimes() map[string]selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	selfs := map[string][]float64{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		self := float64(s.End-s.Start) - float64(covered(s, children[s.ID]))
		selfs[s.Name] = append(selfs[s.Name], self)
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	out := map[string]selfStat{}
	for name, xs := range selfs {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		out[name] = selfStat{Count: len(xs), TotalSelfMS: total / 1e6,
			MedianSelfUS: median(xs) / 1e3, MedianDurUS: median(durs[name]) / 1e3}
	}
	return out
}

// covered returns how many nanoseconds of s the union of kids covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHeader carries "parent/req" from the load generator to the server
// so the handler's span joins the request's trace.
const traceHeader = "X-Perfbench-Span"

// serveTraced wraps the broker's HTTP handler: requests that carry the
// trace header get an httpapi.serve span, the rest pass straight through.
func serveTraced(h http.Handler, t *tracer) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(traceHeader)
		if hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		p, q, _ := strings.Cut(hdr, "/")
		parent, _ := strconv.ParseInt(p, 10, 64)
		req, _ := strconv.ParseInt(q, 10, 64)
		t.timed("httpapi.serve", parent, req, func() { h.ServeHTTP(w, r) })
	})
}
