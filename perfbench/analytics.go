package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/obsort"
)

// analyticsQ is the number of quantiles a pass asks for.
const analyticsQ = 8

// markPred selects the records a pass compacts: about one in eight.
func markPred(rec oblivext.Record) bool { return rec.Key%8 == 0 }

// analyticsConfig is the analytics-sealed Client: sealed blocks on a
// loopback obstore, Sorter "auto" (which picks by the net cost model).
func analyticsConfig(sz sizes, seed uint64, key []byte, url, ns string) oblivext.Config {
	return oblivext.Config{BlockSize: sz.B, CacheWords: sz.M, Seed: seed, Sorter: obsort.EngineAuto,
		EncryptionKey: key, URL: url, Namespace: ns}
}

// passOps are the operations of one analytics pass; "store" opens it. The
// download of the compacted array the check needs ("compact-records")
// follows the pass and is not part of it.
var passOps = map[string]bool{"store": true, "mark": true, "compact": true, "select": true,
	"quantiles": true, "sort": true, "records": true}

// pass is analytics-sealed's unit operation.
var pass = unit{first: "store", member: func(name string) bool { return passOps[name] }}

// analyticsPass runs one pass — Store → Mark → CompactTight(N/4) →
// Select(median) → Quantiles(8) → Sort → Records — and checks every result
// against a plain-Go oracle.
func analyticsPass(r *report, run *runner, sess session, recs []oblivext.Record) error {
	n := int64(len(recs))
	var (
		arr, compacted array
		marked         int64
		sel            oblivext.Record
		qs             []oblivext.Record
		sorted, comp   []oblivext.Record
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"store", func() (err error) { arr, err = sess.Store(recs); return }},
		{"mark", func() (err error) { marked, err = arr.Mark(markPred); return }},
		{"compact", func() (err error) { compacted, err = arr.CompactTight(n / 4); return }},
		{"select", func() (err error) { sel, err = arr.Select((n + 1) / 2); return }},
		{"quantiles", func() (err error) { qs, err = arr.Quantiles(analyticsQ); return }},
		{"sort", func() error { return arr.Sort() }},
		{"records", func() (err error) { sorted, err = arr.Records(); return }},
		{"compact-records", func() (err error) { comp, err = compacted.Records(); return }},
	}
	// Collect the benchmark's own garbage (inputs, the last pass's checks)
	// now, so that every pass starts from the same heap state.
	runtime.GC()
	for _, s := range steps {
		if err := run.do(s.name, s.f); err != nil {
			return err
		}
	}

	want := sortedCopy(recs)
	r.check("sort-permutation", slices.Equal(sorted, want), "sorted download differs from the oracle")
	r.check("select-oracle", sel == want[(n+1)/2-1], "Select(%d) = %+v, oracle %+v", (n+1)/2, sel, want[(n+1)/2-1])
	wantQ := make([]oblivext.Record, analyticsQ)
	for i := range wantQ {
		rank := max(int64(math.Round(float64(i+1)*float64(n)/float64(analyticsQ+1))), 1)
		wantQ[i] = want[rank-1]
	}
	r.check("quantiles-oracle", slices.Equal(qs, wantQ), "Quantiles(%d) = %v, oracle %v", analyticsQ, qs, wantQ)
	var wantC []oblivext.Record
	for _, rec := range recs {
		if markPred(rec) {
			wantC = append(wantC, rec)
		}
	}
	r.check("compact-oracle", marked == int64(len(wantC)) && slices.Equal(comp, wantC),
		"marked %d, compacted %d records; oracle %d in input order", marked, len(comp), len(wantC))
	return nil
}

// passDur sums the durations of a pass's operations.
func passDur(ops []opRun) time.Duration {
	var d time.Duration
	for _, o := range ops {
		if pass.member(o.name) {
			d += o.dur
		}
	}
	return d
}

func analyticsE2E(cfg config) *report {
	r := newReport()
	sz := cfg.sz
	key := benchKey(cfg.seed)
	nb := sz.analyticsN / sz.B
	r.notef("analytics-sealed: N=%d records (%d× the cache), B=%d, M=%d, sort engine %s",
		sz.analyticsN, sz.analyticsN/sz.M, sz.B, sz.M, obsort.Pick(nb, sz.B, sz.M, "net"))

	// Set-up: start the obstore and dial it. Repeated; the last one stays
	// up for the measured passes.
	ctls := []float64{control()}
	var setups []float64
	var ob *loopback
	for rep := 0; rep < sz.setupReps; rep++ {
		start := time.Now()
		var err error
		if ob, err = startObstore(extmem.CryptChildBlockSize(sz.B), nil); err != nil {
			r.op(err)
			return r
		}
		c, err := oblivext.New(analyticsConfig(sz, opSeed(cfg.seed, 0), key, ob.url, "a"))
		if err != nil {
			ob.close()
			r.op(err)
			return r
		}
		d := time.Since(start).Seconds()
		c.Close()
		if rep < sz.setupReps-1 {
			ob.close()
		}
		ctls = append(ctls, control())
		setups = append(setups, rescale(d, ctls[len(ctls)-2], ctls[len(ctls)-1]))
	}
	defer ob.close()

	var passes, raw []float64
	perOp := make(map[string][]float64)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		c, err := oblivext.New(analyticsConfig(sz, opSeed(cfg.seed, p), key, ob.url, "a"))
		if err != nil {
			r.op(err)
			break
		}
		run := &runner{stats: pubSession{c}.Stats}
		err = analyticsPass(r, run, pubSession{c}, genRecords(cfg.seed, p, sz.analyticsN))
		c.Close()
		r.op(err)
		ctls = append(ctls, control())
		if err != nil {
			continue
		}
		k := rescale(1, ctls[len(ctls)-2], ctls[len(ctls)-1])
		raw = append(raw, ms(passDur(run.ops)))
		passes = append(passes, k*ms(passDur(run.ops)))
		for _, o := range run.ops {
			perOp[o.name] = append(perOp[o.name], k*ms(o.dur))
		}
	}
	setLatency(r, setups, passes, raw, ctls, "pass_ms")
	for _, name := range []string{"compact", "select", "quantiles", "sort"} {
		r.notef("%s_ms p50 %.3f scaled, over %d passes", name, median(perOp[name]), len(perOp[name]))
	}
	return r
}

func analyticsTraced(cfg config) *report {
	r := newReport()
	sz := cfg.sz
	key := benchKey(cfg.seed)
	tr := newTracer()
	ob, err := startObstore(extmem.CryptChildBlockSize(sz.B), tr)
	if err != nil {
		r.op(err)
		return r
	}
	defer ob.close()

	// Phase U: the public API, untraced, in namespace "u".
	var uOps []opRun
	var uIO extmem.Stats
	highest := 0
	passes := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		c, err := oblivext.New(analyticsConfig(sz, opSeed(cfg.seed, passes), key, ob.url, "u"))
		if err != nil {
			r.op(err)
			return r
		}
		run := &runner{stats: pubSession{c}.Stats, usage: true}
		err = analyticsPass(r, run, pubSession{c}, genRecords(cfg.seed, passes, sz.analyticsN))
		highest = max(highest, c.CacheHighWater())
		c.Close()
		r.op(err)
		uOps = append(uOps, run.ops...)
		uIO = addIO(uIO, run.ops)
	}

	// Phase T: the same passes on hand-built stacks, traced, in namespace "t".
	var tOps []opRun
	var tIO extmem.Stats
	var net netstore.Stats
	for p := 0; p < passes; p++ {
		st, err := sealedStack(sz, opSeed(cfg.seed, p), key, ob.url, "t", tr.cursor())
		if err != nil {
			r.op(err)
			return r
		}
		run := &runner{stats: st.env.D.Stats, cur: st.cur}
		before := st.netStats()
		err = analyticsPass(r, run, handSession{st}, genRecords(cfg.seed, p, sz.analyticsN))
		d := netDelta(before, st.netStats())
		net.Requests += d.Requests
		net.Attempts += d.Attempts
		highest = max(highest, st.env.Cache.HighWater())
		st.close()
		r.op(err)
		tOps = append(tOps, run.ops...)
		tIO = addIO(tIO, run.ops)
	}

	r.check("traced-io-equal", tIO == uIO, "traced %+v != untraced %+v", tIO, uIO)
	uj, tj := ob.srv.TraceSummaryNS("u"), ob.srv.TraceSummaryNS("t")
	r.check("traced-journal-equal", uj == tj && uj.Len > 0, "journal of the traced passes %+v != untraced %+v", tj, uj)
	r.check("sealed-bytes", tIO.BytesSealed > 0 && tIO.BytesOpened > 0, "no sealed bytes counted: %+v", tIO)
	setLayers(r, tr, tOps, pass)
	setNet(r, net, passes)
	setRuntime(r, uOps, pass)
	setCache(r, highest, sz.M)
	setOverhead(r, tOps, uOps, pass)
	writeSpans(r, cfg, tr)
	return r
}
