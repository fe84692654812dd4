// Command perfbench is the repository's benchmark. It runs one workload
// through the public entry points (oblivext.Client/Array, the kvservice
// HTTP API, an in-process obstore on loopback), checks every output, and
// prints one JSON line of metrics:
//
//	perfbench --workload sort-mem --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, untraced. With
// --trace 1 it replays the workload on a hand-built copy of the same store
// stack with a timing decorator at every layer boundary, checks that the
// replay reproduces the untraced run's block I/O, round trips, sealed bytes
// and server journals exactly, and reports the per-layer metrics. See
// README.md for why each workload exists and what each metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
// The unit operation a latency times is the workload's own: one Array.Sort
// (sort-mem), one full analytics pass (analytics-sealed), one HTTP GET or
// PUT (kv-sealed).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ops_per_s", "ops/s"},
}

// perLayer are the metrics of a traced run. Sums are per unit operation
// (the traced total over the number of unit operations) unless the name
// says otherwise; a layer the workload does not reach reports 0.
var perLayer = []metricSpec{
	{"obsort.compute_ms", "ms"},
	{"obsort.blocks", "count"},
	{"obsort.round_trips", "count"},
	{"core.select.compute_ms", "ms"},
	{"core.select.blocks", "count"},
	{"core.select.round_trips", "count"},
	{"core.compact.compute_ms", "ms"},
	{"core.compact.blocks", "count"},
	{"core.compact.round_trips", "count"},
	{"core.quantiles.compute_ms", "ms"},
	{"core.quantiles.blocks", "count"},
	{"core.quantiles.round_trips", "count"},
	{"extmem.store_wait_ms", "ms"},
	{"extmem.blocks_per_round_trip", "ratio"},
	{"extmem.cache_high_water", "elements"},
	{"cryptstore.self_ms", "ms"},
	{"cryptstore.mb_sealed", "MB"},
	{"cryptstore.mb_opened", "MB"},
	{"netstore.wait_ms", "ms"},
	{"netstore.requests", "count"},
	{"netstore.attempts", "count"},
	{"netstore.rtt_p50_us", "us"},
	{"netstore.rtt_p99_us", "us"},
	{"netstore.mb_out", "MB"},
	{"netstore.mb_in", "MB"},
	{"obstore.busy_ms", "ms"},
	{"obstore.store_ms", "ms"},
	{"obstore.requests", "count"},
	{"oram.steady_op_ms", "ms"},
	{"oram.blocks_per_op", "count"},
	{"oram.rebuild_op_ms", "ms"},
	{"oram.rebuild_ops", "count"},
	{"oram.rebuild_blocks", "count"},
	{"kvservice.put_over_get", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_s", "s"},
	{"runtime.max_rss_mb", "MB"},
	{"trace.overhead_ms", "ms"},
}

// sizes is the geometry of every workload. full is what the benchmark
// measures; the smoke test runs the same code at tiny sizes.
type sizes struct {
	B, M       int // block size and private cache, in elements
	sortN      int // sort-mem records
	analyticsN int // analytics-sealed records
	kvSlots    int // kv-sealed ORAM slots per namespace
	kvCycle    int // accesses per ORAM rebuild cycle: the top buffer's size
	// Set-ups per run; setup_s is their median. kv-sealed's builds two
	// ORAMs and takes about a second, the others' take milliseconds.
	setupReps, kvSetupReps int
}

var full = sizes{B: 8, M: 4096, sortN: 1 << 16, analyticsN: 1 << 14, kvSlots: 64, kvCycle: 64,
	setupReps: 15, kvSetupReps: 3}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where a traced run writes its spans; "" skips them
	sz       sizes
}

// workloads maps a workload name to its end-to-end and traced runs.
var workloads = map[string]struct{ e2e, traced func(config) *report }{
	"sort-mem":         {sortMemE2E, sortMemTraced},
	"analytics-sealed": {analyticsE2E, analyticsTraced},
	"kv-sealed":        {kvE2E, kvTraced},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run: its operation counts, metrics, the checks that
// ran, and human-readable notes printed ahead of the JSON line.
type report struct {
	attempted, failed int64
	values            map[string]float64
	checks            map[string]int // check name → times it ran
	errs              []string
	notes             []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), checks: make(map[string]int)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records that the named check ran; a false ok fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) bool {
	r.checks[name]++
	if !ok {
		r.fail(name+": "+format, args...)
	}
	return ok
}

// fail records an error that fails the run without counting an operation.
func (r *report) fail(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted unit operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("%v", err)
	}
}

// merge folds o's operation counts, checks and failures into r.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	for n, k := range o.checks {
		r.checks[n] += k
	}
	for _, e := range o.errs {
		r.fail("%s", e)
	}
}

// result assembles the JSON line for the given metric set.
func (r *report) result(specs []metricSpec) (result, error) {
	res := result{Correct: len(r.errs) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// run executes one invocation and returns its report.
func run(cfg config) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.trace {
		r := w.traced(cfg)
		r.set("runtime.max_rss_mb", maxRSSMB())
		for _, s := range perLayer {
			if _, ok := r.values[s.name]; !ok {
				r.set(s.name, 0) // a layer this workload does not reach
			}
		}
		return r, nil
	}
	r := w.e2e(cfg)
	r.notef("max_rss_mb %.2f", maxRSSMB())
	return r, nil
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sort-mem, analytics-sealed or kv-sealed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", "", "directory the traced run writes its spans to")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.sz = full
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res, err := r.result(specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.checks))
	for n := range r.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# check %s ran %d times\n", n, r.checks[n])
	}
	if r.attempted > 0 {
		fmt.Printf("# error_rate %.6f (%d of %d operations failed)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, and its rank; with fewer than eleven samples, the maximum.
func tail(xs []float64) (v, pct float64) {
	q := 1.0
	if n := len(xs); n > 10 {
		q = float64(n-10) / float64(n)
	}
	return quantile(xs, q), 100 * q
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// usage is a snapshot of the process-wide runtime counters.
type usage struct {
	alloc uint64 // bytes allocated, cumulative
	gc    uint32
	cpu   time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{alloc: ms.TotalAlloc, gc: ms.NumGC, cpu: cpu}
}

// sub returns the usage between o and u.
func (u usage) sub(o usage) usage {
	return usage{alloc: u.alloc - o.alloc, gc: u.gc - o.gc, cpu: u.cpu - o.cpu}
}

func (u usage) add(o usage) usage {
	return usage{alloc: u.alloc + o.alloc, gc: u.gc + o.gc, cpu: u.cpu + o.cpu}
}
