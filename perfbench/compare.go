package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain compares two result sets (directories of result files, as
// written under .bench_build/perfbench/results). For every workload it
// prints each end-to-end metric, then the per-layer metrics and span self
// times of the traced runs, so a regression names its layer. Values are
// medians over the seeds in each set; every ratio is printed with its base.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <results-dir-A> <results-dir-B>")
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	fmt.Printf("A = %s\nB = %s\nvalues are medians over each set's seeds\n", args[0], args[1])
	// End-to-end: one block per metric, one row per workload.
	metrics := map[string]bool{}
	for _, rs := range []*resultSet{a, b} {
		for _, ms := range rs.e2e {
			for m := range ms {
				metrics[m] = true
			}
		}
	}
	for _, m := range sortedKeys(metrics) {
		fmt.Printf("\n== %s (untraced)\n", m)
		fmt.Printf("  %-30s %14s %14s %9s\n", "workload", "A", "B", "B/A")
		for _, wl := range sortedKeys(union(a.e2e, b.e2e)) {
			printRow(fmt.Sprintf("%s (seeds %d/%d)", wl, a.seeds[wl+"/0"], b.seeds[wl+"/0"]), a.e2e[wl][m], b.e2e[wl][m], "")
		}
	}
	// Per-layer: one block per workload, so a regression names its layer.
	for _, wl := range sortedKeys(union(a.layer, b.layer)) {
		fmt.Printf("\n== %s: per-layer (traced; seeds %d/%d)\n", wl, a.seeds[wl+"/1"], b.seeds[wl+"/1"])
		fmt.Printf("  %-30s %14s %14s %9s\n", "metric", "A", "B", "B/A")
		for _, name := range sortedKeys(union(a.layer[wl], b.layer[wl])) {
			note := ""
			if l, ok := specs.PerLayer[name]; ok {
				note = fmt.Sprintf(" should move %v on %s", l.Moves, l.On)
			}
			printRow(name, a.layer[wl][name], b.layer[wl][name], note)
		}
		fmt.Printf("\n== %s: span self time, median us\n", wl)
		for _, name := range sortedKeys(union(a.self[wl], b.self[wl])) {
			printRow(name, a.self[wl][name], b.self[wl][name], "")
		}
	}
	return nil
}

type resultSet struct {
	e2e, layer, self map[string]map[string]series // workload -> metric -> values
	seeds            map[string]int
}

type series struct {
	unit string
	xs   []float64
}

func loadResults(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	rs := &resultSet{e2e: map[string]map[string]series{}, layer: map[string]map[string]series{},
		self: map[string]map[string]series{}, seeds: map[string]int{}}
	add := func(into map[string]map[string]series, wl, name, unit string, v float64) {
		if into[wl] == nil {
			into[wl] = map[string]series{}
		}
		s := into[wl][name]
		s.unit = unit
		s.xs = append(s.xs, v)
		into[wl][name] = s
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs.seeds[fmt.Sprintf("%s/%d", r.Workload, b2i(r.Traced))]++
		if !r.Traced {
			for k, m := range r.EndToEnd {
				add(rs.e2e, r.Workload, k, m.Unit, m.Value)
			}
			continue
		}
		for k, m := range r.PerLayer {
			add(rs.layer, r.Workload, k, m.Unit, m.Value)
		}
		for k, s := range r.SelfTimes {
			add(rs.self, r.Workload, k, "us", s.MedianSelfUS)
		}
	}
	return rs, nil
}

// printRow prints one metric's medians, their ratio and the ratio's base.
func printRow(label string, sa, sb series, note string) {
	unit := sa.unit
	if unit == "" {
		unit = sb.unit
	}
	ma, mb := medianOrNaN(sa.xs), medianOrNaN(sb.xs)
	ratio := "-"
	if ma != 0 && !math.IsNaN(ma) && !math.IsNaN(mb) {
		ratio = fmt.Sprintf("%.3f", mb/ma)
	}
	fmt.Printf("  %-30s %14.4f %14.4f %9s  (base A = %.4g %s)%s\n", label, ma, mb, ratio, ma, unit, note)
}

func medianOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return median(xs)
}

func union[V any](a, b map[string]V) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
