package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
	"oblivext/internal/trace"
)

// genRecords makes op's n input records for a run seeded with seed: keys
// uniform over uint64, values the input index (so ties and the
// permutation are checkable).
func genRecords(seed uint64, op, n int) []oblivext.Record {
	rng := rand.New(rand.NewPCG(seed, uint64(op)))
	recs := make([]oblivext.Record, n)
	for i := range recs {
		recs[i] = oblivext.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	return recs
}

// opSeed is the Client seed of op: distinct per operation, fixed by seed.
func opSeed(seed uint64, op int) uint64 { return seed*1_000_003 + uint64(op) }

// sortedCopy is the oracle for Sort: records by key, ties in input order.
func sortedCopy(recs []oblivext.Record) []oblivext.Record {
	out := slices.Clone(recs)
	slices.SortStableFunc(out, func(a, b oblivext.Record) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	return out
}

// checkSorted checks a sorted download against the oracle: sorted by key
// and a permutation of the input (values are input indexes, so equality
// with the stable oracle is both).
func checkSorted(r *report, name string, got, input []oblivext.Record) bool {
	return r.check(name, slices.Equal(got, sortedCopy(input)),
		"output of %d records is not the sorted permutation of the %d inputs", len(got), len(input))
}

// sortMemConfig is the sort-mem Client: in-memory Bob, zigzag via "auto".
func sortMemConfig(sz sizes, seed uint64) oblivext.Config {
	return oblivext.Config{BlockSize: sz.B, CacheWords: sz.M, Seed: seed, Sorter: obsort.EngineAuto}
}

// sortMemOp is one sort-mem operation on a session: Store (untimed), Sort
// (the unit operation), Records plus the check (untimed).
func sortMemOp(r *report, run *runner, sess session, recs []oblivext.Record) error {
	var arr array
	err := run.do("store", func() (err error) { arr, err = sess.Store(recs); return })
	if err == nil {
		// Collect the benchmark's own garbage (inputs, the last check) now,
		// so that the Sort starts from the same heap state every time.
		runtime.GC()
		err = run.do("sort", arr.Sort)
	}
	var got []oblivext.Record
	if err == nil {
		err = run.do("records", func() (err error) { got, err = arr.Records(); return })
	}
	if err == nil {
		checkSorted(r, "sort-permutation", got, recs)
	}
	return err
}

func sortMemE2E(cfg config) *report {
	r := newReport()
	sz := cfg.sz
	r.notef("sort-mem: N=%d records (%d× the cache), B=%d, M=%d, engine %s",
		sz.sortN, sz.sortN/sz.M, sz.B, sz.M, obsort.Pick(sz.sortN/sz.B, sz.B, sz.M, "mem"))
	// Set-up is everything before the first Sort: the Client and its
	// uploaded input. It is repeated and the median reported; each measured
	// operation then pays the same, untimed.
	ctls := []float64{control()}
	var setups []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		start := time.Now()
		c, err := oblivext.New(sortMemConfig(sz, opSeed(cfg.seed, 0)))
		if err == nil {
			_, err = c.Store(genRecords(cfg.seed, 0, sz.sortN))
			c.Close()
		}
		if err != nil {
			r.op(err)
			return r
		}
		d := time.Since(start).Seconds()
		ctls = append(ctls, control())
		setups = append(setups, rescale(d, ctls[len(ctls)-2], ctls[len(ctls)-1]))
	}

	var lat, raw []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		c, err := oblivext.New(sortMemConfig(sz, opSeed(cfg.seed, op)))
		if err != nil {
			r.op(err)
			break
		}
		run, recs := &runner{stats: pubSession{c}.Stats}, genRecords(cfg.seed, op, sz.sortN)
		err = sortMemOp(r, run, pubSession{c}, recs)
		c.Close()
		r.op(err)
		ctls = append(ctls, control())
		if d, ok := opDur(run.ops, "sort"); ok {
			raw = append(raw, ms(d))
			lat = append(lat, rescale(ms(d), ctls[len(ctls)-2], ctls[len(ctls)-1]))
		}
	}
	setLatency(r, setups, lat, raw, ctls, "sort_ms")
	return r
}

// opDur returns the duration of the last operation called name.
func opDur(ops []opRun, name string) (time.Duration, bool) {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].name == name {
			return ops[i].dur, true
		}
	}
	return 0, false
}

// setLatency reports the end-to-end metrics of a sequential single-client
// workload from its control-scaled set-up times (s) and unit-operation
// latencies (ms); raw and ctls, the latencies as measured and the control
// samples, go to the notes.
func setLatency(r *report, setups, lat, raw, ctls []float64, name string) {
	sum := 0.0
	for _, l := range lat {
		sum += l
	}
	tv, pct := tail(lat)
	rt, _ := tail(raw)
	r.set("setup_s", median(setups))
	r.set("latency_p50_ms", median(lat))
	r.set("latency_tail_ms", tv)
	r.set("ops_per_s", 1e3*float64(len(lat))/sum)
	r.notef("%s over %d ops: p50 %.3f, p%.1f %.3f scaled; p50 %.3f, p%.1f %.3f as measured; control p50 %.3f ms",
		name, len(lat), median(lat), pct, tv, median(raw), pct, rt, median(ctls))
}

func sortMemTraced(cfg config) *report {
	r := newReport()
	sz := cfg.sz
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))

	// Phase U: the public API, untraced, with the client trace recorded.
	var (
		uStats  extmem.Stats
		uTrace  []oblivext.TraceSummary
		uOps    []opRun
		highest int
	)
	deadline := time.Now().Add(half)
	ops := 0
	for ; ops == 0 || time.Now().Before(deadline); ops++ {
		c, err := oblivext.New(sortMemConfig(sz, opSeed(cfg.seed, ops)))
		if err != nil {
			r.op(err)
			return r
		}
		c.EnableTrace(0)
		run := &runner{stats: pubSession{c}.Stats, usage: true}
		err = sortMemOp(r, run, pubSession{c}, genRecords(cfg.seed, ops, sz.sortN))
		uTrace = append(uTrace, c.TraceSummary())
		highest = max(highest, c.CacheHighWater())
		c.Close()
		r.op(err)
		uStats = addIO(uStats, run.ops)
		uOps = append(uOps, run.ops...)
	}

	// Phase T: the same operations on the hand-built stack, traced.
	tr := newTracer()
	var tStats extmem.Stats
	var tOps []opRun
	var tTrace []oblivext.TraceSummary
	for op := 0; op < ops; op++ {
		st := memStack(sz, opSeed(cfg.seed, op), tr.cursor())
		rec := trace.NewRecorder(0)
		st.env.D.SetRecorder(rec)
		run := &runner{stats: st.env.D.Stats, cur: st.cur}
		err := sortMemOp(r, run, handSession{st}, genRecords(cfg.seed, op, sz.sortN))
		tTrace = append(tTrace, oblivext.TraceSummary(rec.Summarize()))
		highest = max(highest, st.env.Cache.HighWater())
		r.op(err)
		tStats = addIO(tStats, run.ops)
		tOps = append(tOps, run.ops...)
	}

	r.check("traced-io-equal", tStats == uStats, "traced %+v != untraced %+v", tStats, uStats)
	r.check("traced-trace-equal", slices.Equal(tTrace, uTrace),
		"traced client traces differ from the untraced ones over %d ops", ops)
	sorts := only("sort")
	setLayers(r, tr, tOps, sorts)
	setRuntime(r, uOps, sorts)
	setCache(r, highest, sz.M)
	setOverhead(r, tOps, uOps, sorts)
	writeSpans(r, cfg, tr)
	return r
}
