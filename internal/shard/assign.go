// Package shard implements sharded support-set pricing: the slice
// assignment that partitions the support set across workers, the HTTP
// fan-out client the router installs as its Sweeper, the worker-
// side handler serving sweep slices, and an in-process cluster harness
// for tests, benchmarks and `make cluster`.
//
// The cluster's correctness contract is bit-identity with a single
// node: shards ship per-element raw material (bits, hashes) for their
// contiguous slice, the router reassembles the slices in shard order —
// which IS global element order — and every float fold runs once, on
// the router, through the unmodified single-node code.
package shard

// Range is one shard's contiguous slice [Lo, Hi) of the global support
// element index.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Width returns the number of elements in the slice.
func (r Range) Width() int { return r.Hi - r.Lo }

// Assign partitions size elements into n contiguous slices, in order:
// shard i covers [out[i].Lo, out[i].Hi). The first size%n shards get
// ceil(size/n) elements, the rest floor(size/n) — so no shard sweeps
// more than ceil(size/n) rows per cold quote. The assignment is a pure
// function of (size, n): every node in a cluster derives the identical
// layout without coordination, and the same support-set generation
// always maps to the same slices.
func Assign(size, n int) []Range {
	if n < 1 {
		n = 1
	}
	out := make([]Range, n)
	base, extra := size/n, size%n
	lo := 0
	for i := range out {
		w := base
		if i < extra {
			w++
		}
		out[i] = Range{Lo: lo, Hi: lo + w}
		lo += w
	}
	return out
}
