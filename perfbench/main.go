// Command perfbench is the broker's end-to-end benchmark. It runs one
// seeded buyer workload against the broker served by internal/httpapi on
// a loopback listener, checks that served prices are correct, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage, from the root of the checkout:
//
//	bash perfbench/run.sh --workload cold-quotes --seed 7 --seconds 30 --trace 0
//	bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
//
// Every run also writes its full result (host, inputs, all metrics, span
// self times) under .bench_build/perfbench/results, and a traced run
// writes its spans under .bench_build/perfbench/spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outRoot holds everything a run leaves behind, relative to the checkout.
const outRoot = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing or ratio.
	N int `json:"n,omitempty"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
}

type result struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Traced        bool              `json:"traced"`
	Host          host              `json:"host"`
	Inputs        spec              `json:"inputs"`
	LedgerFlush   string            `json:"ledger_flush,omitempty"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Correct       bool              `json:"correct"`
	Problems      []string          `json:"problems,omitempty"`
	LoadgenBehind bool              `json:"loadgen_behind"`
	NotMeasurable []string          `json:"not_measurable,omitempty"`
	Notes         []string          `json:"notes,omitempty"`
	EndToEnd      map[string]metric `json:"end_to_end"`
	// ShapeP50 is the open loop's median quote latency per query shape.
	ShapeP50  map[string]metric   `json:"shape_p50_ms"`
	PerLayer  map[string]metric   `json:"per_layer,omitempty"`
	SelfTimes map[string]selfStat `json:"self_times,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "warm-quotes, cold-quotes or durable-purchases")
	seed := flag.Int64("seed", 1, "workload seed: request stream (pool order, constants, arrivals, buyers) and check samples")
	seconds := flag.Float64("seconds", 30, "measured seconds (load phases)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	res, err := runBenchmark(*name, *seed, *seconds, *trace == 1)
	if err == nil {
		err = emit(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// contractMetrics reads BENCHMARK.json from the checkout root: the
// metrics the final JSON line carries are exactly the ones it lists.
func contractMetrics(traced bool) ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// emit prints every metric by name with its unit, writes the full result
// file, and ends with the one-line JSON summary.
func emit(res *result) error {
	names, err := contractMetrics(res.Traced)
	if err != nil {
		return err
	}
	h := res.Host
	fmt.Printf("perfbench %s seed=%d traced=%v nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		res.Workload, res.Seed, res.Traced, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	printMetrics := func(title string, ms map[string]metric) {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println(title)
		for _, k := range keys {
			m := ms[k]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			fmt.Printf("  %-30s %14.4f %s%s\n", k, m.Value, m.Unit, n)
		}
	}
	printMetrics("end-to-end:", res.EndToEnd)
	if res.Traced {
		printMetrics("per-layer:", res.PerLayer)
		fmt.Println("span self time (median us, count):")
		keys := make([]string, 0, len(res.SelfTimes))
		for k := range res.SelfTimes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := res.SelfTimes[k]
			fmt.Printf("  %-30s %14.2f us  (n=%d)\n", k, s.MedianSelfUS, s.Count)
		}
	}
	for _, nm := range res.NotMeasurable {
		fmt.Printf("not measurable: %s\n", nm)
	}
	if res.LoadgenBehind {
		fmt.Println("warning: the open-loop generator fell behind its schedule (loadgen.late_p99_ms)")
	}
	for _, p := range res.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if err := writeResult(res); err != nil {
		return err
	}

	src := res.EndToEnd
	if res.Traced {
		src = res.PerLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeResult(res *result) error {
	dir := filepath.Join(outRoot, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, b2i(res.Traced)))
	return os.WriteFile(path, data, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

var errNotMeasurable = errors.New("not measurable on this host")

// ---- statistics ----

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile; +Inf entries (failed requests)
// sort last, so failures count as missing any latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
