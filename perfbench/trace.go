package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblivext/internal/extmem"
)

// layer names a boundary the traced run times. The client-side chain is
// op → crypt|store → netclient → wire; the wire's server half is
// obstore → backing.
type layer uint8

const (
	layerOp        layer = iota // one public operation: the root of a span tree
	layerStore                  // Disk → an unsealed store stack (MemStore)
	layerCrypt                  // Disk → CryptStore, the top of a sealed stack
	layerNetClient              // CryptStore → netstore client
	layerWire                   // netstore client → one HTTP attempt, body included
	layerObstore                // obstore handler
	layerBacking                // obstore → its backing MemStore
	numLayers
)

var layerNames = [numLayers]string{"op", "store", "crypt", "netclient", "wire", "obstore", "backing"}

// span is one timed call. Spans of one operation share op (the id of its
// root span); parent is 0 for a root. Times are nanoseconds since the
// tracer's epoch. in/out carry the wire bytes of a layerWire span.
type span struct {
	id, parent, op int32
	layer          layer
	name           uint8 // index into tracer.names, for layerOp spans
	in, out        int32
	start, end     int64
}

// tracer keeps every span of a traced run in memory; write dumps them when
// the run ends. It is safe for concurrent use: each client session records
// through its own cursor, and the server half records from its handler
// goroutines.
type tracer struct {
	epoch time.Time
	ids   atomic.Int32

	mu     sync.Mutex
	spans  []span
	names  []string
	server map[string]serverSlot // namespace → the handler span in flight
}

// serverSlot is the handler span a namespace's backing-store calls nest in.
// A namespace has at most one request in flight (its client is
// single-caller and runs without prefetch), so one slot per namespace
// suffices.
type serverSlot struct{ op, id int32 }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), server: make(map[string]serverSlot)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) nameIndex(name string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

// snapshot returns the recorded spans and op names.
func (t *tracer) snapshot() ([]span, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]string(nil), t.names...)
}

// write dumps every span as gzipped tab-separated text, one span a line.
func (t *tracer) write(path string) (err error) {
	spans, names := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\tlayer\tname\tstart_ns\tend_ns\tbytes_out\tbytes_in")
	for _, s := range spans {
		name := ""
		if s.layer == layerOp {
			name = names[s.name]
		}
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n",
			s.id, s.parent, s.op, layerNames[s.layer], name, s.start, s.end, s.out, s.in)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// cursor records the spans of one client session. It is used from one
// goroutine at a time — the session's — so the open-span stack needs no
// lock; the stack gives every span its parent.
type cursor struct {
	t     *tracer
	op    int32 // root span of the open operation, 0 between operations
	name  uint8
	stack []int32
	start []int64
}

func (t *tracer) cursor() *cursor { return &cursor{t: t} }

// beginOp opens the root span of one operation; endOp closes it.
func (c *cursor) beginOp(name string) {
	c.name = c.t.nameIndex(name)
	c.op = c.begin()
}

func (c *cursor) endOp() { c.end(layerOp, c.name, 0, 0) }

// begin opens a child span of the innermost open span and returns its id.
func (c *cursor) begin() int32 {
	id := c.t.ids.Add(1)
	c.stack = append(c.stack, id)
	c.start = append(c.start, c.t.now())
	return id
}

// end closes the innermost open span, recording it under l.
func (c *cursor) end(l layer, name uint8, in, out int32) {
	n := len(c.stack) - 1
	id, start := c.stack[n], c.start[n]
	c.stack, c.start = c.stack[:n], c.start[:n]
	var parent int32
	if n > 0 {
		parent = c.stack[n-1]
	}
	op := c.op
	if n == 0 {
		c.op = 0
	}
	c.t.record(span{id: id, parent: parent, op: op, layer: l, name: name, in: in, out: out, start: start, end: c.t.now()})
}

type cursorKey struct{}

// timedStore is a BlockStore decorator that opens a span of its layer
// around every vectored call. It forwards the optional interfaces the Disk
// and the store stack type-assert — Growable (allocation past capacity),
// CryptCounters (the sealed-byte counters in IOStats) and CtxStore — so
// wrapping a stack changes neither its behaviour nor its counters. A nil
// cursor, or one with no operation open, makes it a plain pass-through.
type timedStore struct {
	inner extmem.BlockStore
	cur   *cursor
	layer layer
}

func (s *timedStore) traced() bool { return s.cur != nil && s.cur.op != 0 }

func (s *timedStore) call(ctx context.Context, f func(ctx context.Context) error) error {
	if !s.traced() {
		return f(ctx)
	}
	s.cur.begin()
	err := f(context.WithValue(ctx, cursorKey{}, s.cur))
	s.cur.end(s.layer, 0, 0, 0)
	return err
}

func (s *timedStore) ReadBlocksCtx(ctx context.Context, addrs []int, dst []extmem.Element) error {
	return s.call(ctx, func(ctx context.Context) error { return extmem.ReadBlocksCtx(ctx, s.inner, addrs, dst) })
}

func (s *timedStore) WriteBlocksCtx(ctx context.Context, addrs []int, src []extmem.Element) error {
	return s.call(ctx, func(ctx context.Context) error { return extmem.WriteBlocksCtx(ctx, s.inner, addrs, src) })
}

func (s *timedStore) ReadBlocks(addrs []int, dst []extmem.Element) error {
	return s.ReadBlocksCtx(context.Background(), addrs, dst)
}

func (s *timedStore) WriteBlocks(addrs []int, src []extmem.Element) error {
	return s.WriteBlocksCtx(context.Background(), addrs, src)
}

// ReadBlock and WriteBlock keep the scalar calls scalar. Over a store that
// takes a context (the wire client, whose scalar call is a one-block
// batch) they go through the context call so the wire span nests in theirs.
func (s *timedStore) ReadBlock(addr int, dst []extmem.Element) error {
	return s.call(context.Background(), func(ctx context.Context) error {
		if _, ok := s.inner.(extmem.CtxStore); ok {
			return extmem.ReadBlocksCtx(ctx, s.inner, []int{addr}, dst)
		}
		return s.inner.ReadBlock(addr, dst)
	})
}

func (s *timedStore) WriteBlock(addr int, src []extmem.Element) error {
	return s.call(context.Background(), func(ctx context.Context) error {
		if _, ok := s.inner.(extmem.CtxStore); ok {
			return extmem.WriteBlocksCtx(ctx, s.inner, []int{addr}, src)
		}
		return s.inner.WriteBlock(addr, src)
	})
}

func (s *timedStore) NumBlocks() int { return s.inner.NumBlocks() }
func (s *timedStore) BlockSize() int { return s.inner.BlockSize() }
func (s *timedStore) Close() error   { return s.inner.Close() }

// GrowTo forwards extmem.Growable; an inner store that cannot grow reports
// an error, which the Disk turns into the same allocation failure it would
// have raised without the wrapper.
func (s *timedStore) GrowTo(n int) error {
	if g, ok := s.inner.(extmem.Growable); ok {
		return g.GrowTo(n)
	}
	return fmt.Errorf("perfbench: store below %s wrapper cannot grow", layerNames[s.layer])
}

// BytesSealed, BytesOpened and ResetCryptStats forward extmem.CryptCounters;
// over an unsealed store they read zero, as the Disk would without them.
func (s *timedStore) BytesSealed() int64 {
	if cc, ok := s.inner.(extmem.CryptCounters); ok {
		return cc.BytesSealed()
	}
	return 0
}

func (s *timedStore) BytesOpened() int64 {
	if cc, ok := s.inner.(extmem.CryptCounters); ok {
		return cc.BytesOpened()
	}
	return 0
}

func (s *timedStore) ResetCryptStats() {
	if cc, ok := s.inner.(extmem.CryptCounters); ok {
		cc.ResetCryptStats()
	}
}

// spanHeader carries "op.parent" from a traced wire attempt to the server
// half, and nsHeader the namespace whose backing store the request touches.
const (
	spanHeader = "X-Perfbench-Span"
	nsHeader   = "X-Perfbench-Ns"
)

// wireTransport times each HTTP attempt a traced netstore call makes, from
// sending the request to the end of its response body, and counts the
// bytes each way. Requests whose context carries no cursor (control-plane
// calls, untraced sessions) pass through untouched.
type wireTransport struct {
	inner http.RoundTripper
	ns    string
}

func (w *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	cur, _ := req.Context().Value(cursorKey{}).(*cursor)
	if cur == nil || cur.op == 0 {
		return w.inner.RoundTrip(req)
	}
	id := cur.begin()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(int(cur.op))+"."+strconv.Itoa(int(id)))
	req.Header.Set(nsHeader, w.ns)
	resp, err := w.inner.RoundTrip(req)
	if err != nil {
		cur.end(layerWire, 0, 0, int32(req.ContentLength))
		return nil, err
	}
	resp.Body = &wireBody{ReadCloser: resp.Body, cur: cur, out: int32(req.ContentLength)}
	return resp, nil
}

// wireBody closes the wire span at the end of the response body.
type wireBody struct {
	io.ReadCloser
	cur    *cursor
	in     int32
	out    int32
	closed bool
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.in += int32(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *wireBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *wireBody) finish() {
	if !b.closed {
		b.closed = true
		b.cur.end(layerWire, 0, b.in, b.out)
	}
}

// handler wraps an obstore's handler, timing the requests a traced wire
// attempt marked. While one is served, its namespace's slot names the span
// that backingStore calls nest in.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(spanHeader)
		if hdr == "" {
			next.ServeHTTP(w, r)
			return
		}
		opStr, parentStr, _ := strings.Cut(hdr, ".")
		op, _ := strconv.Atoi(opStr)
		parent, _ := strconv.Atoi(parentStr)
		ns := r.Header.Get(nsHeader)
		id := t.ids.Add(1)
		start := t.now()
		t.mu.Lock()
		t.server[ns] = serverSlot{op: int32(op), id: id}
		t.mu.Unlock()
		next.ServeHTTP(w, r)
		t.mu.Lock()
		delete(t.server, ns)
		t.mu.Unlock()
		t.record(span{id: id, parent: int32(parent), op: int32(op), layer: layerObstore, start: start, end: t.now()})
	})
}

// backingStore times the obstore's calls into one namespace's store while
// a traced request for that namespace is being served.
type backingStore struct {
	extmem.BlockStore
	t  *tracer
	ns string
}

func (s *backingStore) timed(f func() error) error {
	s.t.mu.Lock()
	slot, ok := s.t.server[s.ns]
	s.t.mu.Unlock()
	if !ok {
		return f()
	}
	id := s.t.ids.Add(1)
	start := s.t.now()
	err := f()
	s.t.record(span{id: id, parent: slot.id, op: slot.op, layer: layerBacking, start: start, end: s.t.now()})
	return err
}

func (s *backingStore) ReadBlocks(addrs []int, dst []extmem.Element) error {
	return s.timed(func() error { return s.BlockStore.ReadBlocks(addrs, dst) })
}

func (s *backingStore) WriteBlocks(addrs []int, src []extmem.Element) error {
	return s.timed(func() error { return s.BlockStore.WriteBlocks(addrs, src) })
}

func (s *backingStore) GrowTo(n int) error { return s.BlockStore.(extmem.Growable).GrowTo(n) }
