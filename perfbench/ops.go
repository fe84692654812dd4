package main

import (
	"fmt"
	"time"

	"oblivext"
	"oblivext/internal/core"
	"oblivext/internal/extmem"
	"oblivext/internal/obsort"
)

// session is what the sort and analytics workloads store their input
// through: a public oblivext.Client (pubSession) or the traced hand-built
// stack (handSession). The two must make the same block trace, which the
// traced run checks.
type session interface {
	Store(recs []oblivext.Record) (array, error)
}

// array is the outsourced-array surface of oblivext.Array.
type array interface {
	Sort() error
	Select(k int64) (oblivext.Record, error)
	Quantiles(q int) ([]oblivext.Record, error)
	Mark(pred func(oblivext.Record) bool) (int64, error)
	CompactTight(capacity int64) (array, error)
	Records() ([]oblivext.Record, error)
}

type pubSession struct{ c *oblivext.Client }

func (s pubSession) Store(recs []oblivext.Record) (array, error) {
	a, err := s.c.Store(recs)
	if err != nil {
		return nil, err
	}
	return pubArray{a}, nil
}

// Stats returns the Client's I/O counters as the Disk's type.
func (s pubSession) Stats() extmem.Stats { return extmem.Stats(s.c.Stats()) }

type pubArray struct{ *oblivext.Array }

func (a pubArray) CompactTight(capacity int64) (array, error) {
	out, err := a.Array.CompactTight(capacity)
	if err != nil {
		return nil, err
	}
	return pubArray{out}, nil
}

// handSession runs the Array operations on a hand-built stack. Each method
// mirrors its oblivext.Array counterpart call for call (spans and audit
// hooks aside, which are off in both), so the block trace is the same.
type handSession struct{ st *stack }

type handArray struct {
	st  *stack
	arr extmem.Array
	n   int64
}

// Store mirrors oblivext.Client.Store.
func (s handSession) Store(recs []oblivext.Record) (array, error) {
	env := s.st.env
	b := env.B()
	nBlocks := max(extmem.CeilDiv(len(recs), b), 1)
	arr := env.D.Alloc(nBlocks)
	k := env.ScanBatchN(1, nBlocks)
	buf := env.Cache.Buf(k * b)
	idx := 0
	for lo := 0; lo < nBlocks; lo += k {
		hi := min(lo+k, nBlocks)
		for t := 0; t < (hi-lo)*b; t++ {
			if idx < len(recs) {
				buf[t] = extmem.Element{Key: recs[idx].Key, Val: recs[idx].Val,
					Pos: uint64(idx), Flags: extmem.FlagOccupied}
				idx++
			} else {
				buf[t] = extmem.Element{}
			}
		}
		arr.WriteRange(lo, hi, buf[:(hi-lo)*b])
	}
	env.Cache.Free(buf)
	return &handArray{st: s.st, arr: arr, n: int64(len(recs))}, nil
}

// Records mirrors oblivext.Array.Records.
func (a *handArray) Records() ([]oblivext.Record, error) {
	env := a.st.env
	b := env.B()
	k := env.ScanBatchN(1, a.arr.Len())
	buf := env.Cache.Buf(k * b)
	out := make([]oblivext.Record, 0, a.n)
	for lo := 0; lo < a.arr.Len(); lo += k {
		hi := min(lo+k, a.arr.Len())
		a.arr.ReadRange(lo, hi, buf[:(hi-lo)*b])
		for _, e := range buf[:(hi-lo)*b] {
			if e.Occupied() {
				out = append(out, oblivext.Record{Key: e.Key, Val: e.Val})
			}
		}
	}
	env.Cache.Free(buf)
	return out, nil
}

// Mark mirrors oblivext.Array.Mark.
func (a *handArray) Mark(pred func(oblivext.Record) bool) (int64, error) {
	env := a.st.env
	b := env.B()
	k := env.ScanBatchN(1, a.arr.Len())
	buf := env.Cache.Buf(k * b)
	var marked int64
	for lo := 0; lo < a.arr.Len(); lo += k {
		hi := min(lo+k, a.arr.Len())
		a.arr.ReadRange(lo, hi, buf[:(hi-lo)*b])
		for t := range buf[:(hi-lo)*b] {
			buf[t].Flags &^= extmem.FlagMarked
			if buf[t].Occupied() && pred(oblivext.Record{Key: buf[t].Key, Val: buf[t].Val}) {
				buf[t].Flags |= extmem.FlagMarked
				marked++
			}
		}
		a.arr.WriteRange(lo, hi, buf[:(hi-lo)*b])
	}
	env.Cache.Free(buf)
	return marked, nil
}

// Sort mirrors oblivext.Array.Sort with Sorter "auto".
func (a *handArray) Sort() error {
	engine := obsort.Pick(a.arr.Len(), a.st.env.B(), a.st.env.M, a.st.backend)
	if engine == obsort.EngineRandomized {
		return core.Sort(a.st.env, a.arr, core.SortParams{})
	}
	obsort.PickSorter(engine)(a.st.env, a.arr, obsort.ByKey)
	return nil
}

// Select mirrors oblivext.Array.Select.
func (a *handArray) Select(k int64) (oblivext.Record, error) {
	e, err := core.Select(a.st.env, a.arr, k)
	if err != nil {
		return oblivext.Record{}, err
	}
	return oblivext.Record{Key: e.Key, Val: e.Val}, nil
}

// Quantiles mirrors oblivext.Array.Quantiles.
func (a *handArray) Quantiles(q int) ([]oblivext.Record, error) {
	es, err := core.Quantiles(a.st.env, a.arr, q)
	if err != nil {
		return nil, err
	}
	out := make([]oblivext.Record, len(es))
	for i, e := range es {
		out[i] = oblivext.Record{Key: e.Key, Val: e.Val}
	}
	return out, nil
}

// CompactTight mirrors oblivext.Array.CompactTight.
func (a *handArray) CompactTight(capacity int64) (array, error) {
	rCap := extmem.CeilDiv(int(capacity), a.st.env.B()) + 1
	out, marked, err := core.CompactMarkedTight(a.st.env, a.arr, rCap)
	if err != nil {
		return nil, err
	}
	return &handArray{st: a.st, arr: out, n: marked}, nil
}

// opRun is one executed operation: its wall time, its Disk counter delta,
// and, traced, the id of its root span.
type opRun struct {
	name string
	dur  time.Duration
	io   extmem.Stats
	use  usage // process-wide runtime usage, when the runner measures it
	span int32
}

// runner executes named operations, timing each one and taking the delta
// of the session's Disk counters; with a cursor it also opens the
// operation's root span.
type runner struct {
	stats func() extmem.Stats
	cur   *cursor
	usage bool // read runtime counters around each operation
	ops   []opRun
}

// do runs f as the operation name. A panic inside the library becomes the
// operation's error.
func (r *runner) do(name string, f func() error) error {
	before := r.stats()
	var use usage
	if r.usage {
		use = readUsage()
	}
	var id int32
	if r.cur != nil {
		r.cur.beginOp(name)
		id = r.cur.op
	}
	start := time.Now()
	err := guard(f)
	d := time.Since(start)
	if r.cur != nil {
		if err != nil && len(r.cur.stack) > 1 {
			r.cur.stack, r.cur.start = r.cur.stack[:1], r.cur.start[:1] // drop spans a panic left open
		}
		r.cur.endOp()
	}
	if r.usage {
		use = readUsage().sub(use)
	}
	r.ops = append(r.ops, opRun{name: name, dur: d, io: r.stats().Sub(before), use: use, span: id})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}
