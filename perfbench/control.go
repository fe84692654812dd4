package main

import (
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"
)

// The machine a benchmark runs on drifts in speed by tens of percent over
// minutes, with other tenants' load: on a 2-core Xeon VM a Sort measured
// 114 ms in one run and 178 ms a few minutes later. So each run also times a
// fixed control computation, interleaved with its operations, and reports
// every end-to-end time rescaled by it:
//
//	reported = measured × refControl / control
//
// where control is the mean of the samples taken just before and just after
// the measurement: around each Sort (sort-mem), each pass (analytics-sealed)
// or each 64-access cycle of the two clients (kv-sealed). A change in
// machine speed moves the measurement and the control alike and cancels; a
// change to the program moves only the measurement.
// The control uses the standard library only, so no change to the program
// moves it. Raw times are printed beside the scaled ones.
const refControl = 20 * time.Millisecond

// controlRec is the record the control sorts: the size of an extmem.Element.
type controlRec struct{ key, val, pos, flags uint64 }

// controlSink keeps the control's result live.
var controlSink atomic.Uint64

// control runs a fixed CPU-bound computation and returns its wall time in
// ms: stable sorts of sixteen pseudo-random 4096-record slices, the shape
// of the in-cache sorts the algorithms run.
func control() float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]controlRec, 4096)
	start := time.Now()
	for range 16 {
		for i := range buf {
			buf[i] = controlRec{key: rng.Uint64() >> 40, pos: uint64(i)}
		}
		slices.SortStableFunc(buf, func(a, b controlRec) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			}
			return 0
		})
		controlSink.Add(buf[0].key)
	}
	return ms(time.Since(start))
}

// rescale returns a measurement taken between two control samples, scaled
// to the reference control time.
func rescale(v, before, after float64) float64 {
	return v * ms(refControl) / ((before + after) / 2)
}
