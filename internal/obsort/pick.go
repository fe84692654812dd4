package obsort

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"oblivext/internal/extmem"
)

// Engine names accepted by Pick, Engine and the -sorter flags. The
// "randomized" engine lives in internal/core (it needs the §5 pipeline);
// callers that accept engine names resolve it themselves — Engine here
// covers the deterministic and bucket engines this package owns.
const (
	EngineAuto       = "auto"
	EngineRandomized = "randomized"
	EngineBitonic    = "bitonic"
	EngineBucket     = "bucket"
	EngineZigzag     = "zigzag"
)

// EngineNames lists the valid engine names in stable order.
func EngineNames() []string {
	return []string{EngineAuto, EngineRandomized, EngineBitonic, EngineBucket, EngineZigzag}
}

// ValidEngine reports whether name is a known engine name.
func ValidEngine(name string) bool {
	for _, n := range EngineNames() {
		if n == name {
			return true
		}
	}
	return false
}

// EngineNameError builds the rejection message for an unknown engine name.
func EngineNameError(name string) error {
	return fmt.Errorf("obsort: unknown sorter %q (valid: %s)", name, strings.Join(EngineNames(), ", "))
}

// Pick chooses a sorter engine for a workload: nBlocks blocks of b
// elements against a cache of m elements, over backend "mem" (local or
// in-process stores) or "net" (HTTP backends, where round trips dominate).
// It returns one of EngineBitonic, EngineBucket or EngineZigzag — the
// randomized sort is never picked; its constants lose to every
// deterministic engine at any feasible geometry (E13/E19).
//
// The rule, backed by E19: compare predicted block volume (mem) or
// predicted round trips (net) across the engines the geometry supports,
// and take the cheapest, preferring the failure-free deterministic engines
// on ties. Bitonic wins whenever the input is within a few multiples of
// the cache (its windowed passes are nearly free), Zigzag wins beyond that
// on high-latency backends (2 round trips per half-cache merge-split),
// and BucketSort's 3-pass asymptotics need log2(N/M) to clear the bar
// first — roughly n ≥ 2^8·M over mem.
func Pick(nBlocks, b, m int, backend string) string {
	if nBlocks == 0 {
		return EngineBitonic
	}
	type cand struct {
		name string
		cost int64
	}
	var cands []cand
	if backend == "net" {
		cands = []cand{
			{EngineBitonic, bitonicRoundTrips(nBlocks, b, m)},
			{EngineZigzag, ZigzagRoundTrips(nBlocks, b, m)},
		}
		if BucketSupported(nBlocks, b, m) {
			cands = append(cands, cand{EngineBucket, BucketRoundTrips(nBlocks, b, m)})
		}
	} else {
		np := 1 << extmem.CeilLog2(nBlocks)
		cands = []cand{
			{EngineBitonic, int64(BitonicPassCount(nBlocks, b, m)) * int64(2*np)},
			{EngineZigzag, ZigzagIOCount(nBlocks, b, m)},
		}
		if BucketSupported(nBlocks, b, m) {
			cands = append(cands, cand{EngineBucket, BucketIOCount(nBlocks, b, m)})
		}
	}
	// MinFunc returns the first minimal candidate, so ties keep the order
	// above.
	return slices.MinFunc(cands, func(x, y cand) int { return cmp.Compare(x.cost, y.cost) }).name
}

// bitonicRoundTrips estimates Bitonic's vectored round trips by walking
// its pass structure: 2 per window in windowed passes, 2 per flushed pair
// batch in streaming levels.
func bitonicRoundTrips(nBlocks, b, m int) int64 {
	np := 1 << extmem.CeilLog2(nBlocks)
	ne := np * b
	c := 1 << extmem.FloorLog2(m/2)
	if c > ne {
		c = ne
	}
	windows := int64(ne / c)
	if windows < 1 {
		windows = 1
	}
	pk := int64(max(1, (m/b/2)/2)) // pairs per flush, approximating ScanBatch(1)/2
	rt := 2 * windows              // stage A
	for size := 2 * c; size <= ne; size <<= 1 {
		for stride := size / 2; stride >= c; stride >>= 1 {
			batches := (int64(np/2) + pk - 1) / pk
			rt += 2 * batches
		}
		rt += 2 * windows
	}
	return rt
}

// PickSorter resolves an engine name to a Sorter for the engines this
// package owns; EngineRandomized and EngineAuto must be resolved by the
// caller (internal/core owns the randomized pipeline, and auto needs the
// backend kind). Unknown names panic — validate with ValidEngine first.
func PickSorter(name string) Sorter {
	switch name {
	case EngineBitonic:
		return BitonicSorter
	case EngineBucket:
		return BucketSorter
	case EngineZigzag:
		return ZigzagSorter
	}
	panic(fmt.Sprintf("obsort: no Sorter for engine %q", name))
}

// Auto is the self-selecting Sorter: each call runs Pick for the array's
// geometry over the "mem" cost model and dispatches. It is the default
// engine for ORAM rebuilds — the pick is public (geometry only), so the
// rebuild trace stays a deterministic function of (n, B, t, seed).
func Auto(env *extmem.Env, a extmem.Array, less Less) {
	PickSorter(Pick(a.Len(), a.B(), env.M, "mem"))(env, a, less)
}
