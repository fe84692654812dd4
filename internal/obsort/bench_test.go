package obsort

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
)

// BenchmarkInCache times the private stable sort every engine bottoms out
// in, on a zigzag run's worth of uniform keys. Each iteration re-copies
// the unsorted input, a small fixed share of the time.
func BenchmarkInCache(b *testing.B) {
	const n = 4096
	r := rand.New(rand.NewPCG(41, 42))
	base := make([]extmem.Element, n)
	for i := range base {
		base[i] = extmem.Element{Key: r.Uint64(), Pos: uint64(i), Flags: extmem.FlagOccupied}
	}
	buf := make([]extmem.Element, n)
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, base)
		InCache(buf, ByKey)
	}
}

// BenchmarkZigzagMem times Zigzag at 2^16 elements, B = 8, M = 4096 over
// the in-memory store — 64 runs of M/4, the sort-mem benchmark's geometry.
func BenchmarkZigzagMem(b *testing.B) {
	const bs, m, nBlocks = 8, 4096, 1 << 13
	r := rand.New(rand.NewPCG(43, 44))
	keys := genKeys(r, nBlocks*bs, "rand")
	env := extmem.NewEnv(nBlocks, bs, m, 1)
	a := env.D.Alloc(nBlocks)
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		fillArray(env, a, keys)
		b.StartTimer()
		Zigzag(env, a, ByKey)
	}
}
