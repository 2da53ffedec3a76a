package pricing

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
)

// multiTestQueries mixes fast-path SPJ queries, an aggregate (checkable
// via unrolling), and shapes that fall off the fast path, so the shared
// independent sweep exercises every dispatch branch.
var multiTestQueries = []string{
	"SELECT id FROM R WHERE a = 3",
	"SELECT * FROM R WHERE b < 250",
	"SELECT c, count(*) FROM R GROUP BY c",
	"SELECT id FROM R WHERE a = 3 AND c = 'x'",
	"SELECT sum(b) FROM R WHERE a < 10",
	"SELECT id FROM R WHERE a = 3", // duplicate of the first on purpose
}

func compileAll(t *testing.T, e *Engine, sqls []string) []*exec.Query {
	t.Helper()
	qs := make([]*exec.Query, len(sqls))
	for i, s := range sqls {
		qs[i] = exec.MustCompile(s, e.DB.Schema)
	}
	return qs
}

// independent sweeps k queries in one shared pass (Bundle false).
func independent(t *testing.T, e *Engine, qs []*exec.Query, hashes bool) SweepResult {
	t.Helper()
	r, err := e.Sweep(context.Background(), qs, SweepSpec{Hashes: hashes})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDisagreementsMultiMatchesSolo asserts the independent sweep
// returns, per query, exactly the bitmap and Stats of a solo
// Disagreements call — serial and parallel.
func TestDisagreementsMultiMatchesSolo(t *testing.T) {
	for _, workers := range []int{1, 4} {
		db := benchDB(7, 120)
		e := newEngine(t, db, 150, 100)
		e.Opts.Workers = workers
		qs := compileAll(t, e, multiTestQueries)

		// Solo references on a fresh engine so checker/exec caches start
		// identically cold in both runs.
		ref := newEngine(t, benchDB(7, 120), 150, 100)
		ref.Opts.Workers = workers
		refQs := compileAll(t, ref, multiTestQueries)
		wantDis := make([][]bool, len(qs))
		wantStats := make([]Stats, len(qs))
		for j := range refQs {
			dis, err := ref.Disagreements(refQs[j:j+1], nil)
			if err != nil {
				t.Fatal(err)
			}
			wantDis[j] = dis
			wantStats[j] = ref.LastStats
		}

		r := independent(t, e, qs, false)
		got, stats := r.Bits, r.Stats
		for j := range qs {
			if stats[j] != wantStats[j] {
				t.Errorf("workers=%d query %d: stats %+v, want %+v", workers, j, stats[j], wantStats[j])
			}
			for i := range got[j] {
				if got[j][i] != wantDis[j][i] {
					t.Fatalf("workers=%d query %d element %d: multi=%v solo=%v", workers, j, i, got[j][i], wantDis[j][i])
				}
			}
		}
	}
}

// TestDisagreementsMultiNaiveSharing drives the shared-overlay naive pass
// (fast path off) and checks it still matches solo naive runs.
func TestDisagreementsMultiNaiveSharing(t *testing.T) {
	db := benchDB(9, 80)
	e := newEngine(t, db, 100, 100)
	e.Opts.FastPath = false
	e.Opts.InstanceReduction = false
	qs := compileAll(t, e, multiTestQueries[:4])

	ref := newEngine(t, benchDB(9, 80), 100, 100)
	ref.Opts.FastPath = false
	ref.Opts.InstanceReduction = false
	refQs := compileAll(t, ref, multiTestQueries[:4])

	r := independent(t, e, qs, false)
	got, stats := r.Bits, r.Stats
	for j := range qs {
		want, err := ref.Disagreements(refQs[j:j+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats[j] != ref.LastStats {
			t.Errorf("query %d: stats %+v, want %+v", j, stats[j], ref.LastStats)
		}
		for i := range want {
			if got[j][i] != want[i] {
				t.Fatalf("query %d element %d: multi=%v solo=%v", j, i, got[j][i], want[i])
			}
		}
	}
}

// TestOutputHashesMultiMatchesSolo asserts the independent hash sweep
// produces the exact hash encoding of solo OutputHashes calls, so entropy
// prices derived from either are bit-identical.
func TestOutputHashesMultiMatchesSolo(t *testing.T) {
	db := benchDB(11, 80)
	e := newEngine(t, db, 100, 100)
	qs := compileAll(t, e, multiTestQueries[:4])

	r := independent(t, e, qs, true)
	elems, bases := r.Hashes, r.Bases
	for j := range qs {
		wantElems, wantBase, err := e.OutputHashes(qs[j : j+1])
		if err != nil {
			t.Fatal(err)
		}
		if bases[j] != wantBase {
			t.Errorf("query %d: base hash %d, want %d", j, bases[j], wantBase)
		}
		for i := range wantElems {
			if elems[j][i] != wantElems[i] {
				t.Fatalf("query %d element %d: hash mismatch", j, i)
			}
		}
		for _, fn := range AllFuncs {
			got := e.PricesFromHashes(elems[j], bases[j])[fn]
			want := e.PricesFromHashes(wantElems, wantBase)[fn]
			if got != want {
				t.Errorf("query %d %v: price %g, want %g", j, fn, got, want)
			}
		}
	}
}

// sweepSeed seeds TestSweepMaskInvariant; 0 draws a fresh seed from the
// clock. A failure logs its seed: set it here to replay the same masks
// and modes.
const sweepSeed int64 = 0

// TestSweepMaskInvariant is the property masked sweeps rely on: for
// random disjoint masks covering the support set (not contiguous —
// sampled sweeps use such masks), OR-ing the bits or overlaying the
// hashes of the per-mask sweeps and summing their Stats reproduces the
// unmasked sweep exactly, for bundle and independent, bits and hashes,
// on the five generator schemas, under a randomly drawn evaluation mode.
func TestSweepMaskInvariant(t *testing.T) {
	seed := sweepSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (set sweepSeed to replay)", seed)
	rng := rand.New(rand.NewSource(seed))
	modes := []Options{
		DefaultOptions(),
		{FastPath: true},
		{InstanceReduction: true},
		{},
	}
	cases := []struct {
		name string
		db   *storage.Database
		sqls []string
	}{
		{"world", datagen.World(1), []string{
			"SELECT Name FROM Country WHERE Population > 1000000",
			"SELECT Continent, count(*) FROM Country GROUP BY Continent",
		}},
		{"carcrash", datagen.CarCrash(2, 300), []string{
			"SELECT count(*) FROM crash WHERE Age > 40",
			"SELECT State, min(Age) FROM crash WHERE Age > 30 GROUP BY State",
		}},
		{"ssb", datagen.SSB(3, 0.001), []string{
			"SELECT count(*) FROM lineorder WHERE lo_revenue > 4000000",
			"SELECT c_city, max(lo_revenue) FROM customer, lineorder WHERE c_custkey = lo_custkey GROUP BY c_city",
		}},
		{"tpch", datagen.TPCH(4, 0.002), []string{
			"SELECT s_name FROM supplier WHERE s_acctbal > 5000",
			"SELECT count(*) FROM supplier WHERE s_acctbal < 1000",
		}},
		{"dblp", datagen.DBLP(5, 0.02), []string{
			"SELECT count(*) FROM dblp WHERE FromNodeId < 500",
			"SELECT ToNodeId FROM dblp WHERE FromNodeId < 50",
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		set, err := support.GenerateNeighborhood(tc.db, support.DefaultConfig(60, rng.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(tc.db, set, 100)
		e.Opts = modes[rng.Intn(len(modes))]
		e.Opts.Workers = 1 + rng.Intn(4)
		qs := make([]*exec.Query, len(tc.sqls))
		for j, sql := range tc.sqls {
			qs[j] = exec.MustCompile(sql, tc.db.Schema)
		}
		// Each element joins one of k masks at random.
		k := 2 + rng.Intn(3)
		masks := make([][]bool, k)
		for m := range masks {
			masks[m] = make([]bool, set.Size())
		}
		for i := 0; i < set.Size(); i++ {
			masks[rng.Intn(k)][i] = true
		}
		for _, spec := range []SweepSpec{{Bundle: true}, {}, {Bundle: true, Hashes: true}, {Hashes: true}} {
			label := fmt.Sprintf("seed %d %s opts %+v bundle=%v hashes=%v", seed, tc.name, e.Opts, spec.Bundle, spec.Hashes)
			want, err := e.Sweep(ctx, qs, spec)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := SweepResult{Stats: make([]Stats, len(want.Stats))}
			for range want.Stats {
				got.Bits = append(got.Bits, make([]bool, set.Size()))
				got.Hashes = append(got.Hashes, make([]uint64, set.Size()))
			}
			for _, mask := range masks {
				part := spec
				part.Live = mask
				r, err := e.Sweep(ctx, qs, part)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for x := range r.Stats {
					got.Stats[x].Add(r.Stats[x])
					for i, in := range mask {
						switch {
						case spec.Hashes && in:
							got.Hashes[x][i] = r.Hashes[x][i]
						case spec.Hashes && r.Hashes[x][i] != 0:
							t.Fatalf("%s: masked element %d of output %d carries a hash", label, i, x)
						case !spec.Hashes && !in && r.Bits[x][i]:
							t.Fatalf("%s: masked element %d of output %d disagrees", label, i, x)
						case !spec.Hashes:
							got.Bits[x][i] = got.Bits[x][i] || r.Bits[x][i]
						}
					}
					if spec.Hashes && r.Bases[x] != want.Bases[x] {
						t.Fatalf("%s: output %d base hash %d, want %d", label, x, r.Bases[x], want.Bases[x])
					}
				}
			}
			for x := range want.Stats {
				if got.Stats[x] != want.Stats[x] {
					t.Errorf("%s: output %d summed stats %+v, unmasked %+v", label, x, got.Stats[x], want.Stats[x])
				}
				for i := 0; i < set.Size(); i++ {
					if spec.Hashes && got.Hashes[x][i] != want.Hashes[x][i] {
						t.Fatalf("%s: output %d element %d: overlaid hash %d, unmasked %d", label, x, i, got.Hashes[x][i], want.Hashes[x][i])
					}
					if !spec.Hashes && got.Bits[x][i] != want.Bits[x][i] {
						t.Fatalf("%s: output %d element %d: OR-ed bit %v, unmasked %v", label, x, i, got.Bits[x][i], want.Bits[x][i])
					}
				}
			}
		}
	}
}
