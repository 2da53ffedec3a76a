package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"qirana/internal/durable"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// servedPrice is one exact price the broker served over HTTP.
type servedPrice struct {
	sql   string
	price float64
}

// independentEngine builds a pricing.Engine over the stack's database and
// a support set generated independently from the same data seed, so checks do
// not share a cache, a checker or a code path above pricing with the
// broker under test.
func independentEngine(st *stack, w *workload, tr *tracer) (*pricing.Engine, error) {
	var set *support.Set
	var err error
	tr.timed("support.generate", 0, 0, func() {
		set, err = support.GenerateNeighborhood(st.db, support.Config{Size: w.spec.SupportSize, SwapFraction: 0.5, Seed: w.spec.DataSeed})
	})
	if err != nil {
		return nil, err
	}
	if set.Checksum() != st.broker.SupportChecksum() {
		return nil, fmt.Errorf("independent support set checksum %016x differs from the broker's %016x", set.Checksum(), st.broker.SupportChecksum())
	}
	return pricing.NewEngine(st.db, set, st.broker.TotalPrice()), nil
}

// checkPrices re-prices a seeded sample of k distinct served quotes on
// eng and reports every price that is not bit-identical.
func checkPrices(eng *pricing.Engine, st *stack, served []servedPrice, k int, seed int64) (checked int, problems []string) {
	byPos := rand.New(rand.NewSource(seed ^ 0x636865636b)).Perm(len(served))
	seen := map[string]bool{}
	for _, i := range byPos {
		if checked == k {
			break
		}
		sp := served[i]
		if seen[sp.sql] {
			continue
		}
		seen[sp.sql] = true
		checked++
		q, err := exec.Compile(sp.sql, st.db.Schema)
		if err != nil {
			problems = append(problems, fmt.Sprintf("compile %q: %v", sp.sql, err))
			continue
		}
		want, err := eng.Price(pricing.WeightedCoverage, q)
		if err != nil {
			problems = append(problems, fmt.Sprintf("independent price %q: %v", sp.sql, err))
			continue
		}
		if math.Float64bits(want) != math.Float64bits(sp.price) {
			problems = append(problems, fmt.Sprintf("served price %v for %q, independent engine says %v", sp.price, sp.sql, want))
		}
	}
	return checked, problems
}

// ledgerPath is the broker's write-ahead ledger inside its DataDir.
func ledgerPath(st *stack) string { return filepath.Join(st.dir, "ledger.wal") }

// checkLedger verifies that the ledger's charges add up, buyer by buyer
// and in total, to exactly what the broker reports as paid, and that
// every acknowledged purchase is in the ledger.
func checkLedger(st *stack, buyers []string, acked int) (records int, total float64, problems []string) {
	recs, _, err := durable.ScanLedgerFile(ledgerPath(st))
	if err != nil {
		return 0, 0, []string{fmt.Sprintf("scan ledger: %v", err)}
	}
	perBuyer := map[string]float64{}
	for _, r := range recs {
		perBuyer[r.Buyer] += r.Net
	}
	for _, b := range buyers {
		if _, ok := perBuyer[b]; !ok {
			perBuyer[b] = 0
		}
	}
	names := make([]string, 0, len(perBuyer))
	for b := range perBuyer {
		names = append(names, b)
	}
	sort.Strings(names)
	var paid float64
	for _, b := range names {
		got := st.broker.TotalPaid(b)
		if math.Float64bits(got) != math.Float64bits(perBuyer[b]) {
			problems = append(problems, fmt.Sprintf("buyer %s: ledger holds %v, broker reports %v paid", b, perBuyer[b], got))
		}
		total += perBuyer[b]
		paid += got
	}
	if math.Float64bits(total) != math.Float64bits(paid) {
		problems = append(problems, fmt.Sprintf("ledger total %v != sum of TotalPaid %v", total, paid))
	}
	if len(recs) < acked {
		problems = append(problems, fmt.Sprintf("ledger holds %d records but %d purchases were acknowledged", len(recs), acked))
	}
	return len(recs), total, problems
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
