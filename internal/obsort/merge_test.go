package obsort

import (
	"math/rand/v2"
	"testing"

	"oblivext/internal/extmem"
	"oblivext/internal/trace"
)

// mergeOrders are the orders the sorter engines hand to mergeRuns and
// InCache: the three public ones and BucketSort's pad-aware cargo order.
var mergeOrders = []struct {
	name string
	less Less
}{
	{"ByKey", ByKey},
	{"ByPos", ByPos},
	{"ByRawKey", ByRawKey},
	{"cargo", cargoOrder(ByKey)},
}

// mergeInput returns n elements drawn from few keys, positions and scan
// indices, so every order sees ties; about a quarter are unoccupied cells
// that still carry keys (ByRawKey orders them among the occupied ones).
// Val is the element's input index, so any reordering of ties shows.
func mergeInput(r *rand.Rand, n, base int) []extmem.Element {
	out := make([]extmem.Element, n)
	for i := range out {
		e := extmem.Element{Key: uint64(r.IntN(4)), Pos: uint64(r.IntN(4)), Val: uint64(base + i)}
		if r.IntN(4) != 0 {
			e.Flags = extmem.FlagOccupied
		}
		e.SetCellDest(r.IntN(3))
		out[i] = e
	}
	return out
}

// mergeRuns on two stably sorted runs must produce exactly what InCache
// produces on their concatenation, element for element, for every order
// and for uneven runs: a short high run (lj < li, Zigzag's last run), a
// short low run, one-element runs and an empty high run.
func TestMergeRunsMatchesInCache(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	shapes := [][2]int{{1, 1}, {1, 0}, {2, 1}, {1, 2}, {5, 3}, {3, 5}, {8, 8}, {64, 17}, {17, 64}, {256, 256}}
	for _, o := range mergeOrders {
		for _, sh := range shapes {
			li, lj := sh[0], sh[1]
			for rep := 0; rep < 20; rep++ {
				low := mergeInput(r, li, 0)
				high := mergeInput(r, lj, li)
				InCache(low, o.less)
				InCache(high, o.less)
				buf := append(append([]extmem.Element(nil), low...), high...)
				want := append([]extmem.Element(nil), buf...)
				InCache(want, o.less)

				scratch := make([]extmem.Element, li+3)
				mergeRuns(buf, li, scratch, o.less)
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("%s li=%d lj=%d rep=%d: element %d = %+v, InCache %+v",
							o.name, li, lj, rep, i, buf[i], want[i])
					}
				}
			}
		}
	}
}

func TestMergeRunsAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewPCG(33, 34))
	for _, o := range mergeOrders {
		low, high := mergeInput(r, 512, 0), mergeInput(r, 300, 512)
		InCache(low, o.less)
		InCache(high, o.less)
		buf := append(low, high...)
		scratch := make([]extmem.Element, len(low))
		// Re-merging an already merged buffer is still a merge of two
		// sorted runs, so every run measures the same code path.
		if n := testing.AllocsPerRun(10, func() { mergeRuns(buf, len(low), scratch, o.less) }); n != 0 {
			t.Fatalf("%s: mergeRuns allocated %v times per run", o.name, n)
		}
	}
}

// The merge-splits no longer go through InCachePar, and run formation's
// parallel path must stay indistinguishable from the serial one: the sorted
// output, the I/O counters and the address trace are identical for Workers
// 1 and 4 at a geometry where a run is large enough to fan out.
func TestZigzagWorkersIdentical(t *testing.T) {
	const b, m, nBlocks = 8, 4 * parMinElems, 1024
	r := rand.New(rand.NewPCG(35, 36))
	keys := genKeys(r, nBlocks*b-100, "dup")
	type result struct {
		elems []extmem.Element
		stats extmem.Stats
		trace trace.Summary
	}
	run := func(workers int) result {
		env := extmem.NewEnv(nBlocks, b, m, 9)
		env.Workers = workers
		a := env.D.Alloc(nBlocks)
		fillArray(env, a, keys)
		env.D.ResetStats()
		rec := trace.NewRecorder(0)
		env.D.SetRecorder(rec)
		Zigzag(env, a, ByKey)
		st := env.D.Stats()
		return result{readAll(a), st, rec.Summarize()}
	}
	one, four := run(1), run(4)
	if one.stats != four.stats {
		t.Fatalf("IOStats differ: workers=1 %+v, workers=4 %+v", one.stats, four.stats)
	}
	if !one.trace.Equal(four.trace) {
		t.Fatalf("traces differ: workers=1 %v, workers=4 %v", one.trace, four.trace)
	}
	for i := range one.elems {
		if one.elems[i] != four.elems[i] {
			t.Fatalf("element %d: workers=1 %+v, workers=4 %+v", i, one.elems[i], four.elems[i])
		}
	}
	if got := checkSortedPadded(t, one.elems); !sameMultiset(got, keys) {
		t.Fatal("multiset changed")
	}
}
