package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"oblivext"
	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
	"oblivext/internal/kvservice"
	"oblivext/internal/obsort"
	"oblivext/internal/oram"
)

// kvClients is how many closed-loop clients kv-sealed runs, each in its
// own namespace.
const kvClients = 2

func kvNamespace(i int) string { return "kv" + strconv.Itoa(i) }

// kvOp is one kv-sealed request.
type kvOp struct {
	put   bool
	slot  int
	value string
}

// kvGen generates one client's request stream from the run's seed: 70%
// GET and 30% PUT on uniform slots, with values of up to maxValue bytes.
type kvGen struct {
	rng             *rand.Rand
	slots, maxValue int
}

func newKVGen(seed uint64, client, slots, maxValue int) *kvGen {
	return &kvGen{rng: rand.New(rand.NewPCG(seed, 1<<32+uint64(client))), slots: slots, maxValue: maxValue}
}

func (g *kvGen) next() kvOp {
	op := kvOp{put: g.rng.IntN(10) < 3, slot: g.rng.IntN(g.slots)}
	if op.put {
		v := make([]byte, g.rng.IntN(g.maxValue+1))
		for i := range v {
			v[i] = 'a' + byte(g.rng.IntN(26))
		}
		op.value = string(v)
	}
	return op
}

// sessionSeed is kvservice's derivation of a namespace's seed (the base
// seed plus FNV-1a of the name), repeated so that the hand-built replay of
// a session runs on the session's random tape.
func sessionSeed(base uint64, ns string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(ns); i++ {
		h ^= uint64(ns[i])
		h *= 1099511628211
	}
	return base + h
}

// kvClient is one closed-loop HTTP client. It checks every read against a
// shadow map of its own writes and keeps its own report, merged after the
// run, since the two clients run concurrently.
type kvClient struct {
	r        *report
	hc       *http.Client
	url      string // the namespace's key prefix
	gen      *kvGen
	shadow   map[int]string
	lat      []float64 // ms, every request after the first
	gets     []float64
	puts     []float64
	accesses int // requests sent, the first included
}

// request sends the client's next request and checks it.
func (c *kvClient) request() (time.Duration, error) {
	op := c.gen.next()
	url := c.url + strconv.Itoa(op.slot)
	start := time.Now()
	var req *http.Request
	var err error
	if op.put {
		req, err = http.NewRequest(http.MethodPut, url, strings.NewReader(op.value))
	} else {
		req, err = http.NewRequest(http.MethodGet, url, nil)
	}
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	c.accesses++
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s %s: %s: %s", req.Method, url, resp.Status, strings.TrimSpace(string(body)))
	}
	if op.put {
		c.shadow[op.slot] = op.value
		c.puts = append(c.puts, ms(d))
	} else {
		c.r.check("kv-read-your-writes", string(body) == c.shadow[op.slot],
			"GET slot %d = %q, wrote %q", op.slot, body, c.shadow[op.slot])
		c.gets = append(c.gets, ms(d))
	}
	return d, nil
}

// kvFleet is the kv-sealed system under test: an obstore, the kvservice
// engine over it, its HTTP front end, and the clients.
type kvFleet struct {
	ob, front *loopback
	svc       *kvservice.Service
	clients   []*kvClient
}

// startKV starts the fleet and sends each client's first request, which
// builds the namespace's ORAM. It returns the set-up time: from the start
// until every first request has completed.
func startKV(cfg config, tr *tracer) (*kvFleet, time.Duration, error) {
	sz := cfg.sz
	start := time.Now()
	ob, err := startObstore(extmem.CryptChildBlockSize(sz.B), tr)
	if err != nil {
		return nil, 0, err
	}
	svc, err := kvservice.New(kvservice.Options{Slots: sz.kvSlots, Base: oblivext.Config{
		BlockSize: sz.B, CacheWords: sz.M, Seed: cfg.seed, EncryptionKey: benchKey(cfg.seed), URL: ob.url}})
	if err != nil {
		ob.close()
		return nil, 0, err
	}
	front, err := serve(svc.Handler(), nil)
	if err != nil {
		svc.Close()
		ob.close()
		return nil, 0, err
	}
	f := &kvFleet{ob: ob, front: front, svc: svc}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: kvClients}, Timeout: time.Minute}
	for i := 0; i < kvClients; i++ {
		f.clients = append(f.clients, &kvClient{r: newReport(), hc: hc, shadow: make(map[int]string),
			url: front.url + "/v1/kv/" + kvNamespace(i) + "/",
			gen: newKVGen(cfg.seed, i, sz.kvSlots, svc.ValueBytes())})
	}
	f.each(func(c *kvClient) {
		_, err := c.request()
		c.r.op(err)
	})
	return f, time.Since(start), nil
}

// each runs f once per client, concurrently, and waits.
func (f *kvFleet) each(fn func(c *kvClient)) {
	var wg sync.WaitGroup
	for _, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// cycle drives every client through one whole rebuild cycle, both at
// once, and returns how long it took.
func (f *kvFleet) cycle(n int) time.Duration {
	start := time.Now()
	f.each(func(c *kvClient) {
		for j := 0; j < n; j++ {
			d, err := c.request()
			c.r.op(err)
			if err != nil {
				return
			}
			c.lat = append(c.lat, ms(d))
		}
	})
	return time.Since(start)
}

// merge folds the clients' reports into r.
func (f *kvFleet) merge(r *report) {
	for _, c := range f.clients {
		r.merge(c.r)
	}
}

func (f *kvFleet) close() {
	f.clients[0].hc.CloseIdleConnections()
	f.front.close()
	f.svc.Close()
	f.ob.close()
}

func kvE2E(cfg config) *report {
	r := newReport()
	sz := cfg.sz
	r.notef("kv-sealed: %d clients, %d slots per namespace, B=%d, M=%d, rebuild every %d accesses",
		kvClients, sz.kvSlots, sz.B, sz.M, sz.kvCycle)
	ctls := []float64{control()}
	var setups []float64
	var f *kvFleet
	for rep := 0; rep < sz.kvSetupReps; rep++ {
		var d time.Duration
		var err error
		if f, d, err = startKV(cfg, nil); err != nil {
			r.op(err)
			return r
		}
		if rep < sz.kvSetupReps-1 {
			f.merge(r)
			f.close()
		}
		ctls = append(ctls, control())
		setups = append(setups, rescale(d.Seconds(), ctls[len(ctls)-2], ctls[len(ctls)-1]))
	}
	defer f.close()
	r.set("setup_s", median(setups))

	// The clients run whole cycles side by side; between cycles, while
	// they wait, the control runs, and each cycle's requests are scaled by
	// the samples on either side of it.
	var lat, raw []float64
	var busy, busyRaw float64 // s
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		marks := make([]int, len(f.clients))
		for i, c := range f.clients {
			marks[i] = len(c.lat)
		}
		d := f.cycle(sz.kvCycle).Seconds()
		ctls = append(ctls, control())
		k := rescale(1, ctls[len(ctls)-2], ctls[len(ctls)-1])
		for i, c := range f.clients {
			for _, l := range c.lat[marks[i]:] {
				lat, raw = append(lat, l*k), append(raw, l)
			}
		}
		busy, busyRaw = busy+d*k, busyRaw+d
	}
	f.merge(r)
	tv, pct := tail(lat)
	rt, _ := tail(raw)
	r.set("latency_p50_ms", median(lat))
	r.set("latency_tail_ms", tv)
	r.set("ops_per_s", float64(len(lat))/busy)
	r.notef("kv_p50_ms %.4f, kv_p99_ms %.3f (p%.2f, the highest with 10 samples beyond), kv_ops_per_s %.2f scaled, over %d requests",
		median(lat), tv, pct, float64(len(lat))/busy, len(lat))
	r.notef("kv_p50_ms %.4f, kv_p99_ms %.3f, kv_ops_per_s %.2f as measured over %.2f s; control p50 %.3f ms",
		median(raw), rt, float64(len(raw))/busyRaw, busyRaw, median(ctls))
	return r
}

// kvReplay is one session's hand-built replay: the session's requests,
// in order, as ORAM accesses on a hand-built sealed stack.
type kvReplay struct {
	r         *report
	ops       []opRun // "build" then one "access" per request
	io        extmem.Stats
	net       netstore.Stats // request counts over the accesses
	rebuilds  int64          // rebuilds the ORAM counted during the accesses
	highWater int
}

// replayKV replays client i's first n requests in namespace prefix+kvi,
// traced when cur is non-nil.
func replayKV(cfg config, url string, i, n int, prefix string, cur *cursor) kvReplay {
	sz := cfg.sz
	res := kvReplay{r: newReport()}
	ns := kvNamespace(i)
	st, err := sealedStack(sz, sessionSeed(cfg.seed, ns), benchKey(cfg.seed), url, prefix+ns, cur)
	if err != nil {
		res.r.op(err)
		return res
	}
	defer st.close()
	run := &runner{stats: st.env.D.Stats, cur: cur}
	var o *oram.ORAM
	err = run.do("build", func() (err error) {
		o, err = oram.New(st.env, sz.kvSlots, oram.Options{SorterName: obsort.EngineAuto})
		return
	})
	if err != nil {
		res.r.op(err)
		return res
	}
	gen := newKVGen(cfg.seed, i, sz.kvSlots, (sz.B-1)*8)
	shadow := make(map[int]string)
	netBefore, rebuildsBefore := st.netStats(), o.Rebuilds().Count
	for j := 0; j < n; j++ {
		op := gen.next()
		err := run.do("access", func() error {
			if op.put {
				return o.Write(op.slot, kvservice.PackValue(op.value, sz.B))
			}
			words, err := o.Read(op.slot)
			if err == nil {
				got := kvservice.UnpackValue(words)
				res.r.check("kv-read-your-writes", got == shadow[op.slot], "replayed GET slot %d = %q, wrote %q", op.slot, got, shadow[op.slot])
			}
			return err
		})
		res.r.op(err)
		if err != nil {
			return res
		}
		if op.put {
			shadow[op.slot] = op.value
		}
	}
	res.ops = run.ops
	res.io = st.env.D.Stats()
	res.net = netDelta(netBefore, st.netStats())
	res.rebuilds = o.Rebuilds().Count - rebuildsBefore
	res.highWater = st.env.Cache.HighWater()
	return res
}

// replayAll replays every client's requests concurrently.
func replayAll(cfg config, f *kvFleet, prefix string, tr *tracer) []kvReplay {
	out := make([]kvReplay, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		var cur *cursor
		if tr != nil {
			cur = tr.cursor()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = replayKV(cfg, f.ob.url, i, c.accesses, prefix, cur)
		}()
	}
	wg.Wait()
	return out
}

// access is kv-sealed's unit operation.
var access = only("access")

func kvTraced(cfg config) *report {
	r := newReport()
	sz := cfg.sz
	tr := newTracer()
	f, _, err := startKV(cfg, tr)
	if err != nil {
		r.op(err)
		return r
	}
	defer f.close()

	// Phase U: the kvservice HTTP API, untraced.
	before := readUsage()
	for deadline := time.Now().Add(time.Duration(cfg.seconds / 3 * float64(time.Second))); time.Now().Before(deadline); {
		f.cycle(sz.kvCycle)
	}
	use := readUsage().sub(before)
	f.merge(r)
	stats := f.svc.StatsSnapshot()
	var gets, puts []float64
	measured := 0
	for _, c := range f.clients {
		gets, puts = append(gets, c.gets...), append(puts, c.puts...)
		measured += len(c.lat)
	}
	r.set("kvservice.put_over_get", ratio(median(puts), median(gets)))
	setUsage(r, use, measured)

	// Phases N and T: the same requests replayed on hand-built stacks,
	// untraced and then traced.
	plain := replayAll(cfg, f, "n-", nil)
	traced := replayAll(cfg, f, "t-", tr)

	var tOps, nOps []opRun
	var net netstore.Stats
	var steadyMs, steadyBlocks, rebuildMs, rebuildBlocks []float64
	highest := 0
	for i, c := range f.clients {
		ns := kvNamespace(i)
		p, t := plain[i], traced[i]
		r.merge(p.r)
		r.merge(t.r)
		var row kvservice.SessionStats
		for _, s := range stats.Sessions {
			if s.Namespace == ns {
				row = s
			}
		}
		for _, rep := range []kvReplay{p, t} {
			r.check("traced-io-equal", rep.io.Total() == row.BlockIOs && rep.io.RoundTrips == row.WireRequests,
				"%s replay: %d blocks in %d round trips, kvservice %d in %d", ns, rep.io.Total(), rep.io.RoundTrips, row.BlockIOs, row.WireRequests)
		}
		r.check("traced-sealed-equal", t.io == p.io && t.io.BytesSealed > 0,
			"%s traced replay %+v != untraced replay %+v", ns, t.io, p.io)
		want := f.ob.srv.TraceSummaryNS(ns)
		for _, pre := range []string{"n-", "t-"} {
			got := f.ob.srv.TraceSummaryNS(pre + ns)
			r.check("traced-journal-equal", got == want && want.Len > 0, "%s journal %+v != %s %+v", pre+ns, got, ns, want)
		}

		// Steady or rebuild-carrying, from each access's block count: a
		// rebuild moves many times the blocks of a probe.
		var blocks []float64
		for _, o := range t.ops {
			if access.member(o.name) {
				blocks = append(blocks, float64(o.io.Total()))
			}
		}
		cut := 2 * median(blocks)
		var nRebuild int64
		for _, o := range t.ops {
			if !access.member(o.name) {
				continue
			}
			if float64(o.io.Total()) > cut {
				nRebuild++
				rebuildMs, rebuildBlocks = append(rebuildMs, ms(o.dur)), append(rebuildBlocks, float64(o.io.Total()))
			} else {
				steadyMs, steadyBlocks = append(steadyMs, ms(o.dur)), append(steadyBlocks, float64(o.io.Total()))
			}
		}
		r.check("kv-rebuild-schedule", nRebuild == t.rebuilds && nRebuild == int64(c.accesses/sz.kvCycle),
			"%s: %d accesses, %d classified rebuild-carrying, ORAM counted %d, schedule says %d",
			ns, c.accesses, nRebuild, t.rebuilds, c.accesses/sz.kvCycle)
		r.notef("%s: %d accesses, %d carried a rebuild", ns, c.accesses, nRebuild)
		net.Requests += t.net.Requests
		net.Attempts += t.net.Attempts
		highest = max(highest, p.highWater, t.highWater)
		tOps, nOps = append(tOps, t.ops...), append(nOps, p.ops...)
	}
	r.set("oram.steady_op_ms", median(steadyMs))
	r.set("oram.blocks_per_op", median(steadyBlocks))
	r.set("oram.rebuild_op_ms", median(rebuildMs))
	r.set("oram.rebuild_ops", float64(len(rebuildMs)))
	r.set("oram.rebuild_blocks", mean(rebuildBlocks))
	accesses := access.count(tOps)
	setLayers(r, tr, tOps, access)
	setNet(r, net, accesses)
	setCache(r, highest, sz.M)
	setOverhead(r, tOps, nOps, access)
	writeSpans(r, cfg, tr)
	return r
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
