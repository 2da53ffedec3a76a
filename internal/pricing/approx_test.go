package pricing

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// approxPrice sweeps the bundle qs over the sampled elements and folds
// the result into an estimate, the way the broker's sampled path does.
func approxPrice(ctx context.Context, e *Engine, fn Func, sample []bool, qs ...*exec.Query) (Estimate, error) {
	r, err := e.Sweep(ctx, qs, SweepSpec{Bundle: true, Hashes: fn.UsesHashes(), Live: sample})
	if err != nil {
		return Estimate{}, err
	}
	return e.EstimateFromSweep(fn, r, 0)
}

// The arbitrage-safety core: for every pricing function, every sample
// fraction, and randomized queries, the served approximate price is an
// upper bound on the exact price. The root-level five-schema
// differential covers the broker path; this is the engine-level proof
// over the fold implementations themselves.
func TestApproxEstimateUpperBoundsExact(t *testing.T) {
	db := benchDB(11, 120)
	e := newEngine(t, db, 300, 100)
	sqls := []string{
		"SELECT * FROM R WHERE a = 3",
		"SELECT * FROM R WHERE b < 500",
		"SELECT c, count(*) FROM R GROUP BY c",
		"SELECT * FROM R WHERE a = 3 AND c = 'x'",
		"SELECT count(*) FROM R", // prices 0: bound must hold at the floor too
		"SELECT * FROM R",        // prices Total: bound must not exceed the ceiling
	}
	ctx := context.Background()
	for _, sql := range sqls {
		q := exec.MustCompile(sql, e.DB.Schema)
		for _, fn := range AllFuncs {
			exact, err := e.Price(fn, q)
			if err != nil {
				t.Fatalf("%v %q exact: %v", fn, sql, err)
			}
			for _, frac := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
				sample := support.SampleMask(e.Set.Size(), frac, 7, 1)
				est, err := approxPrice(ctx, e, fn, sample, q)
				if err != nil {
					t.Fatalf("%v %q frac %v: %v", fn, sql, frac, err)
				}
				if est.Price < exact-1e-9 {
					t.Errorf("%v %q frac %v: estimate %.9f < exact %.9f (arbitrage!)",
						fn, sql, frac, est.Price, exact)
				}
				if est.Price > e.Total+1e-9 {
					t.Errorf("%v %q frac %v: estimate %.9f exceeds total %v",
						fn, sql, frac, est.Price, e.Total)
				}
				if est.Point > est.Price+1e-9 {
					t.Errorf("%v %q frac %v: point %.9f above served bound %.9f",
						fn, sql, frac, est.Point, est.Price)
				}
				if est.CI < 0 {
					t.Errorf("%v %q frac %v: negative CI %v", fn, sql, frac, est.CI)
				}
				if est.SampleN < 1 || est.SampleFrac <= 0 || est.SampleFrac > 1 {
					t.Errorf("%v %q frac %v: bad sample provenance %+v", fn, sql, frac, est)
				}
			}
		}
	}
}

// A full sample (frac=1) must reproduce the exact price bit-identically
// for the bitmap-derivable functions and within float noise for the
// entropies (whose plug-in normalization matches the exact fold when
// the sample covers everything).
func TestApproxFullSampleMatchesExact(t *testing.T) {
	db := benchDB(5, 80)
	e := newEngine(t, db, 200, 100)
	ctx := context.Background()
	q := exec.MustCompile("SELECT * FROM R WHERE a = 5", e.DB.Schema)
	sample := support.SampleMask(e.Set.Size(), 1, 3, 1)
	for _, fn := range AllFuncs {
		exact, err := e.Price(fn, q)
		if err != nil {
			t.Fatal(err)
		}
		est, err := approxPrice(ctx, e, fn, sample, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Price-exact) > 1e-9 {
			t.Errorf("%v: full-sample estimate %.12f != exact %.12f", fn, est.Price, exact)
		}
	}
}

// The point estimate should converge toward the exact price as the
// sample fraction grows; assert the largest fraction is no farther from
// exact than the served worst-case bound at the smallest fraction.
func TestApproxPointTightensWithFraction(t *testing.T) {
	db := benchDB(17, 150)
	e := newEngine(t, db, 400, 100)
	ctx := context.Background()
	q := exec.MustCompile("SELECT * FROM R WHERE b < 300", e.DB.Schema)
	exact, err := e.Price(WeightedCoverage, q)
	if err != nil {
		t.Fatal(err)
	}
	small := support.SampleMask(e.Set.Size(), 0.05, 7, 1)
	big := support.SampleMask(e.Set.Size(), 0.8, 7, 1)
	estS, err := approxPrice(ctx, e, WeightedCoverage, small, q)
	if err != nil {
		t.Fatal(err)
	}
	estB, err := approxPrice(ctx, e, WeightedCoverage, big, q)
	if err != nil {
		t.Fatal(err)
	}
	if gapB, gapS := estB.Price-exact, estS.Price-exact; gapB > gapS {
		t.Errorf("bound did not tighten: gap %.6f at frac 0.8 vs %.6f at 0.05", gapB, gapS)
	}
	if math.Abs(estB.Point-exact) > math.Abs(estS.Price-exact)+1e-9 {
		t.Errorf("point at frac 0.8 (%.6f) farther from exact %.6f than worst-case bound at 0.05 (%.6f)",
			estB.Point, exact, estS.Price)
	}
}

// Randomized estimator-fold property: feed synthetic disagreement and
// hash vectors straight into the folds and check the bound against the
// exact folds over the same vectors.
func TestApproxFoldsQuick(t *testing.T) {
	db := benchDB(23, 60)
	e := newEngine(t, db, 150, 100)
	n := e.Set.Size()
	prop := func(bits []byte, fracSeed uint8, seed int64) bool {
		if len(bits) == 0 {
			bits = []byte{0}
		}
		dis := make([]bool, n)
		hashes := make([]uint64, n)
		for i := 0; i < n; i++ {
			b := bits[i%len(bits)]
			dis[i] = b&1 != 0
			hashes[i] = uint64(b >> 1 & 7) // few blocks → real merges
		}
		frac := float64(fracSeed%90+5) / 100
		sample := support.SampleMask(n, frac, seed, 1)
		for _, fn := range []Func{WeightedCoverage, UniformEntropyGain} {
			exact, err := e.PriceFromDisagreements(fn, dis)
			if err != nil {
				return false
			}
			est, err := e.EstimateFromSampledDisagreements(fn, dis, sample)
			if err != nil || est.Price < exact-1e-9 {
				return false
			}
		}
		for _, fn := range []Func{ShannonEntropy, QEntropy} {
			exact := e.entropyPrice(fn, hashes)
			est, err := e.EstimateFromSampledHashes(fn, hashes, sample)
			if err != nil || est.Price < exact-1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
