package main

import (
	"fmt"
	"path/filepath"
	"time"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

// addIO adds the Disk counter deltas of ops to s.
func addIO(s extmem.Stats, ops []opRun) extmem.Stats {
	for _, o := range ops {
		s.Reads += o.io.Reads
		s.Writes += o.io.Writes
		s.RoundTrips += o.io.RoundTrips
		s.BytesSealed += o.io.BytesSealed
		s.BytesOpened += o.io.BytesOpened
	}
	return s
}

// opLayers maps the operations whose cost is reported per layer to their
// metric prefix.
var opLayers = map[string]string{
	"sort":      "obsort",
	"select":    "core.select",
	"compact":   "core.compact",
	"quantiles": "core.quantiles",
}

// unit is a workload's unit operation: the operations that make it up,
// and the one of them that occurs once per unit. sort-mem's is a Sort,
// analytics-sealed's a pass opened by its Store, kv-sealed's one access.
type unit struct {
	first  string
	member func(name string) bool
}

func only(name string) unit {
	return unit{first: name, member: func(n string) bool { return n == name }}
}

// count returns how many units ops hold.
func (u unit) count(ops []opRun) int {
	n := 0
	for _, o := range ops {
		if o.name == u.first {
			n++
		}
	}
	return n
}

// setLayers reports the per-layer metrics a traced phase's spans and
// operation records give, per unit operation.
func setLayers(r *report, tr *tracer, ops []opRun, u unit) {
	n := float64(max(u.count(ops), 1))
	spans, _ := tr.snapshot()

	inUnit := make(map[int32]bool)
	var io extmem.Stats
	for _, o := range ops {
		if u.member(o.name) {
			inUnit[o.span] = true
			io = addIO(io, []opRun{o})
		}
	}
	// A span's self time is its duration less its children's: the children
	// of one span never overlap, since each session has one call in flight.
	var maxID int32
	for _, s := range spans {
		maxID = max(maxID, s.id)
	}
	children := make([]int64, maxID+1)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] += s.end - s.start
		}
	}
	var total, self [numLayers]int64
	var count [numLayers]int
	var wire []float64
	var wireIn, wireOut int64
	opSelf := make(map[int32]int64)
	for _, s := range spans {
		if !inUnit[s.op] {
			continue
		}
		d := s.end - s.start
		total[s.layer] += d
		self[s.layer] += d - children[s.id]
		count[s.layer]++
		switch s.layer {
		case layerOp:
			opSelf[s.id] = d - children[s.id]
		case layerWire:
			wire = append(wire, float64(d)/1e3)
			wireIn += int64(s.in)
			wireOut += int64(s.out)
		}
	}
	perMs := func(ns int64) float64 { return float64(ns) / 1e6 / n }

	// Compute, blocks and round trips of each reported operation.
	type acc struct {
		self       int64
		blocks, rt int64
		n          int
	}
	byOp := make(map[string]*acc)
	for _, o := range ops {
		if _, ok := opLayers[o.name]; !ok || !inUnit[o.span] {
			continue
		}
		a := byOp[o.name]
		if a == nil {
			a = &acc{}
			byOp[o.name] = a
		}
		a.self += opSelf[o.span]
		a.blocks += o.io.Total()
		a.rt += o.io.RoundTrips
		a.n++
	}
	for name, prefix := range opLayers {
		var c, b, rt float64
		if a := byOp[name]; a != nil {
			k := float64(a.n)
			c, b, rt = float64(a.self)/1e6/k, float64(a.blocks)/k, float64(a.rt)/k
		}
		r.set(prefix+".compute_ms", c)
		r.set(prefix+".blocks", b)
		r.set(prefix+".round_trips", rt)
	}

	r.set("extmem.store_wait_ms", perMs(total[layerStore]+total[layerCrypt]))
	r.set("extmem.blocks_per_round_trip", ratio(float64(io.Total()), float64(io.RoundTrips)))
	r.set("cryptstore.self_ms", perMs(self[layerCrypt]))
	r.set("cryptstore.mb_sealed", float64(io.BytesSealed)/1e6/n)
	r.set("cryptstore.mb_opened", float64(io.BytesOpened)/1e6/n)
	r.set("netstore.wait_ms", perMs(total[layerNetClient]))
	r.set("netstore.rtt_p50_us", quantile(wire, 0.50))
	r.set("netstore.rtt_p99_us", quantile(wire, 0.99))
	r.set("netstore.mb_out", float64(wireOut)/1e6/n)
	r.set("netstore.mb_in", float64(wireIn)/1e6/n)
	r.set("obstore.busy_ms", perMs(total[layerObstore]))
	r.set("obstore.store_ms", perMs(total[layerBacking]))
	r.set("obstore.requests", float64(count[layerObstore])/n)
	r.notef("traced %d unit ops: %d spans; per layer total/self ms per unit op:", int(n), len(spans))
	for l := layerOp; l < numLayers; l++ {
		if count[l] > 0 {
			r.notef("  %-9s n=%-8d total %10.3f  self %10.3f", layerNames[l], count[l], perMs(total[l]), perMs(self[l]))
		}
	}
}

// setNet reports the wire client's request and attempt counts per unit
// operation from the clients' counter deltas over the traced phase.
func setNet(r *report, delta netstore.Stats, n int) {
	k := float64(max(n, 1))
	r.set("netstore.requests", float64(delta.Requests)/k)
	r.set("netstore.attempts", float64(delta.Attempts)/k)
}

// netDelta returns b − a for the request counters setNet reports.
func netDelta(a, b netstore.Stats) netstore.Stats {
	return netstore.Stats{Requests: b.Requests - a.Requests, Attempts: b.Attempts - a.Attempts}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setRuntime reports the runtime usage measured around the unit
// operations of an untraced phase, per unit operation.
func setRuntime(r *report, ops []opRun, u unit) {
	var use usage
	for _, o := range ops {
		if u.member(o.name) {
			use = use.add(o.use)
		}
	}
	setUsage(r, use, u.count(ops))
}

// setUsage reports process-wide runtime usage per unit operation.
func setUsage(r *report, u usage, n int) {
	k := float64(max(n, 1))
	r.set("runtime.alloc_mb_per_op", float64(u.alloc)/1e6/k)
	r.set("runtime.gc_cycles", float64(u.gc)/k)
	r.set("runtime.cpu_s", u.cpu.Seconds()/k)
}

// setCache reports the private-cache high-water mark and checks it against M.
func setCache(r *report, highWater, m int) {
	r.set("extmem.cache_high_water", float64(highWater))
	r.check("cache-high-water", highWater <= m, "cache high-water %d exceeds M=%d", highWater, m)
}

// setOverhead reports the tracing overhead: the mean traced unit operation
// less the mean untraced one, over the same operations.
func setOverhead(r *report, traced, untraced []opRun, u unit) {
	sum := func(ops []opRun) time.Duration {
		var d time.Duration
		for _, o := range ops {
			if u.member(o.name) {
				d += o.dur
			}
		}
		return d
	}
	t, un := sum(traced), sum(untraced)
	n := float64(max(u.count(traced), 1))
	r.set("trace.overhead_ms", ms(t-un)/n)
	r.notef("tracing overhead: traced %.1f ms vs untraced %.1f ms per unit op", ms(t)/n, ms(un)/n)
}

// writeSpans writes the traced phase's spans under the output directory.
func writeSpans(r *report, cfg config, tr *tracer) {
	if cfg.outDir == "" {
		return
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv.gz", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		r.fail("write spans: %v", err)
		return
	}
	r.notef("spans written to %s", path)
}
