package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"testing"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/obsort"
	"oblivext/internal/trace"
)

// tiny runs every workload's code at sizes that take a fraction of a
// second: the inputs stay 4× the cache, as in the full benchmark.
var tiny = sizes{B: 8, M: 512, sortN: 1 << 11, analyticsN: 1 << 11, kvSlots: 16, kvCycle: 16, setupReps: 2, kvSetupReps: 2}

// checksRun names the output checks each workload must run, untraced and
// traced.
var checksRun = map[string][2][]string{
	"sort-mem": {
		{"sort-permutation"},
		{"sort-permutation", "traced-io-equal", "traced-trace-equal", "cache-high-water"},
	},
	"analytics-sealed": {
		{"sort-permutation", "select-oracle", "quantiles-oracle", "compact-oracle"},
		{"sort-permutation", "select-oracle", "quantiles-oracle", "compact-oracle",
			"traced-io-equal", "traced-journal-equal", "sealed-bytes", "cache-high-water"},
	},
	"kv-sealed": {
		{"kv-read-your-writes"},
		{"kv-read-your-writes", "traced-io-equal", "traced-sealed-equal", "traced-journal-equal",
			"kv-rebuild-schedule", "cache-high-water"},
	},
}

// TestSmoke runs all three workloads at tiny sizes, untraced and traced,
// and checks that every named metric is emitted with its unit and that
// every output check ran and passed.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for i, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/e2e", true: "/traced"}[traced], func(t *testing.T) {
				r, err := run(config{workload: name, seed: 7, seconds: 0.3, trace: traced, outDir: t.TempDir(), sz: tiny})
				if err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				res, err := r.result(specs)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, r.errs)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit || m.Unit == "" {
						t.Errorf("metric %s: got %+v, want unit %q", s.name, m, s.unit)
					}
				}
				if !traced {
					for _, s := range endToEnd {
						if res.Metrics[s.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", s.name, res.Metrics[s.name].Value)
						}
					}
				}
				for _, c := range checksRun[name][i] {
					if r.checks[c] == 0 {
						t.Errorf("check %s did not run (ran: %v)", c, r.checks)
					}
				}
			})
		}
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the workloads
// and metrics the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		want := make(map[string]string)
		for _, s := range specs {
			want[s.name] = s.unit
		}
		for _, m := range listed {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) in BENCHMARK.json: program reports unit %q", kind, m.Name, m.Unit, u)
			}
			delete(want, m.Name)
		}
		for n := range want {
			t.Errorf("%s metric %s is missing from BENCHMARK.json", kind, n)
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// sealedEnv builds Disk → CryptStore → MemStore, with a timing decorator
// at both boundaries when cur is non-nil.
func sealedEnv(t *testing.T, cur *cursor) *extmem.Env {
	t.Helper()
	enc, err := extmem.NewEncryptor(benchKey(1))
	if err != nil {
		t.Fatal(err)
	}
	var child extmem.BlockStore = extmem.NewMemStore(4, extmem.CryptChildBlockSize(8))
	if cur != nil {
		child = &timedStore{inner: child, cur: cur, layer: layerNetClient}
	}
	cs, err := extmem.NewCryptStore(child, enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	var top extmem.BlockStore = cs
	if cur != nil {
		top = &timedStore{inner: cs, cur: cur, layer: layerCrypt}
	}
	return extmem.NewEnvOn(top, 512, 3)
}

// TestTimedStoreForwardsOptionalInterfaces shows that wrapping a sealed
// stack keeps its IOStats — the sealed-byte counters included — and its
// ability to grow: the Disk reaches both through type assertions, so a
// wrapper that hid them would zero the counters or fail the allocation.
func TestTimedStoreForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	cur := tr.cursor()
	stats := make([]extmem.Stats, 2)
	for i, env := range []*extmem.Env{sealedEnv(t, nil), sealedEnv(t, cur)} {
		run := &runner{stats: env.D.Stats, cur: cur}
		if i == 0 {
			run.cur = nil
		}
		recs := genRecords(5, 0, 1024) // 128 blocks: the stores start at 4
		var arr array
		sess := handSession{&stack{env: env, backend: "mem"}}
		if err := run.do("store", func() (err error) { arr, err = sess.Store(recs); return }); err != nil {
			t.Fatal(err)
		}
		if err := run.do("sort", arr.Sort); err != nil {
			t.Fatal(err)
		}
		got, err := arr.Records()
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		if !checkSorted(r, "sort", got, recs) {
			t.Fatalf("sealed sort wrong: %v", r.errs)
		}
		stats[i] = env.D.Stats()
		if env.D.Allocated() <= 4 {
			t.Fatalf("allocated %d blocks; the test needs growth past 4", env.D.Allocated())
		}
	}
	if stats[0] != stats[1] || stats[1].BytesSealed == 0 || stats[1].BytesOpened == 0 {
		t.Fatalf("wrapped stack stats %+v, unwrapped %+v (want equal, with sealed bytes)", stats[1], stats[0])
	}
	spans, _ := tr.snapshot()
	var crypt, child int
	for _, s := range spans {
		switch s.layer {
		case layerCrypt:
			crypt++
		case layerNetClient:
			child++
		}
	}
	if crypt == 0 || crypt != child {
		t.Fatalf("spans: %d at the CryptStore boundary, %d below it; want equal and non-zero", crypt, child)
	}
}

// TestTimedStoreForwardsContext checks the CtxStore forwarding: a canceled
// context reaches the wire client through the wrapper, and an open
// operation's wire attempt is timed.
func TestTimedStoreForwardsContext(t *testing.T) {
	tr := newTracer()
	srv := netstore.NewServer(extmem.NewMemStore(16, 8), netstore.ServerOptions{})
	hs := httptest.NewServer(tr.handler(srv.Handler()))
	defer hs.Close()
	nc, err := netstore.Dial(hs.URL, netstore.Options{Transport: &wireTransport{inner: netstore.NewTransport(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cur := tr.cursor()
	ts := &timedStore{inner: nc, cur: cur, layer: layerNetClient}
	var cs extmem.BlockStore = ts
	if _, ok := cs.(extmem.CtxStore); !ok {
		t.Fatal("timedStore does not implement extmem.CtxStore")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ts.ReadBlocksCtx(ctx, []int{0}, make([]extmem.Element, 8)); err == nil {
		t.Fatal("read under a canceled context succeeded")
	}
	cur.beginOp("read")
	if err := ts.ReadBlock(1, make([]extmem.Element, 8)); err != nil {
		t.Fatal(err)
	}
	cur.endOp()
	spans, _ := tr.snapshot()
	seen := make(map[layer]int)
	for _, s := range spans {
		seen[s.layer]++
	}
	for _, l := range []layer{layerOp, layerNetClient, layerWire, layerObstore} {
		if seen[l] != 1 {
			t.Errorf("%s spans: %d, want 1 (all: %v)", layerNames[l], seen[l], seen)
		}
	}
}

// TestHandMirrorsPublicAPI checks the hand-built mirror of the Array
// operations against oblivext on an in-memory store: same results and the
// same block trace.
func TestHandMirrorsPublicAPI(t *testing.T) {
	recs := genRecords(9, 0, tiny.analyticsN)
	c, err := oblivext.New(oblivext.Config{BlockSize: tiny.B, CacheWords: tiny.M, Seed: 4, Sorter: obsort.EngineAuto})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableTrace(0)
	pub := newReport()
	if err := analyticsPass(pub, &runner{stats: pubSession{c}.Stats}, pubSession{c}, recs); err != nil {
		t.Fatal(err)
	}
	st := memStack(tiny, 4, nil)
	rec := trace.NewRecorder(0)
	st.env.D.SetRecorder(rec)
	hand := newReport()
	if err := analyticsPass(hand, &runner{stats: st.env.D.Stats}, handSession{st}, recs); err != nil {
		t.Fatal(err)
	}
	if len(pub.errs)+len(hand.errs) > 0 {
		t.Fatalf("checks failed: public %v, hand-built %v", pub.errs, hand.errs)
	}
	if got, want := oblivext.TraceSummary(rec.Summarize()), c.TraceSummary(); got != want {
		t.Fatalf("hand-built trace %+v, public %+v", got, want)
	}
	if got, want := st.env.D.Stats(), extmem.Stats(c.Stats()); got != want {
		t.Fatalf("hand-built stats %+v, public %+v", got, want)
	}
}
