package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"

	"oblivext/internal/extmem"
	"oblivext/internal/extmem/netstore"
)

// loopback is an HTTP server on a loopback port: an obstore, or the
// kvservice front end.
type loopback struct {
	srv  *netstore.Server // the obstore, nil for another handler
	hs   *http.Server
	url  string
	done chan struct{}
}

// startObstore starts an in-process, namespaced obstore: every namespace
// gets its own MemStore of the given block size. With a tracer the handler
// and the backing stores are timed for traced requests; other requests
// pass through.
func startObstore(blockSize int, tr *tracer) (*loopback, error) {
	factory := func(ns string) (extmem.BlockStore, error) {
		var s extmem.BlockStore = extmem.NewMemStore(1024, blockSize)
		if tr != nil {
			s = &backingStore{BlockStore: s, t: tr, ns: ns}
		}
		return s, nil
	}
	srv := netstore.NewServer(extmem.NewMemStore(1024, blockSize), netstore.ServerOptions{StoreFactory: factory})
	o, err := serve(srv.Handler(), tr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	o.srv = srv
	return o, nil
}

// serve runs h on a fresh loopback listener.
func serve(h http.Handler, tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		h = tr.handler(h)
	}
	o := &loopback{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		o.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return o, nil
}

// close stops the server and waits for its serving goroutine.
func (o *loopback) close() {
	o.hs.Close()
	<-o.done
	if o.srv != nil {
		o.srv.Close()
	}
}

// benchKey derives the workload's 32-byte encryption key from its seed.
func benchKey(seed uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	k := sha256.Sum256(append([]byte("perfbench key "), b[:]...))
	return k[:]
}

// stack is a hand-built store stack under one Env. It uses the exported
// constructors in the order, and with the settings, oblivext.New uses for
// Config{BlockSize, CacheWords, Seed, Sorter: "auto"} — plus EncryptionKey,
// URL and Namespace for a sealed stack — and puts a timing decorator at
// each boundary oblivext.New offers no seam for: Disk → top of the stack,
// and CryptStore → wire client.
type stack struct {
	env     *extmem.Env
	cur     *cursor
	nc      *netstore.Client // nil for an in-memory stack
	backend string           // the cost model "auto" sorts with: "mem" or "net"
}

// memStack is the stack of an in-memory Client: Disk → MemStore.
func memStack(sz sizes, seed uint64, cur *cursor) *stack {
	st := &timedStore{inner: extmem.NewMemStore(1024, sz.B), cur: cur, layer: layerStore}
	return &stack{env: extmem.NewEnvOn(st, sz.M, seed), cur: cur, backend: "mem"}
}

// sealedStack is the stack of an encrypted Client over an obstore:
// Disk → CryptStore → netstore client → HTTP.
func sealedStack(sz sizes, seed uint64, key []byte, url, ns string, cur *cursor) (*stack, error) {
	// oblivext.New sizes its transport's idle pool to shards·replicas + 2.
	tr := &wireTransport{inner: netstore.NewTransport(3), ns: ns}
	nc, err := netstore.Dial(url, netstore.Options{Namespace: ns, Transport: tr})
	if err != nil {
		return nil, err
	}
	if want := extmem.CryptChildBlockSize(sz.B); nc.BlockSize() != want {
		nc.Close()
		return nil, fmt.Errorf("obstore block size %d, want %d", nc.BlockSize(), want)
	}
	enc, err := extmem.NewEncryptor(key)
	if err != nil {
		nc.Close()
		return nil, err
	}
	cs, err := extmem.NewCryptStore(&timedStore{inner: nc, cur: cur, layer: layerNetClient}, enc, sz.B)
	if err != nil {
		nc.Close()
		return nil, err
	}
	cs.SetWorkers(0)
	env := extmem.NewEnvOn(&timedStore{inner: cs, cur: cur, layer: layerCrypt}, sz.M, seed)
	env.D.SetMaxBatch(nc.MaxBatchBlocks())
	return &stack{env: env, cur: cur, nc: nc, backend: "net"}, nil
}

func (s *stack) close() error {
	if s.nc == nil {
		return nil
	}
	return s.nc.Close()
}

// netStats returns the wire client's counters (zero for a memory stack).
func (s *stack) netStats() netstore.Stats {
	if s.nc == nil {
		return netstore.Stats{}
	}
	return s.nc.NetStats()
}

// guard runs f, turning a panic into an error: the Disk panics on a failed
// store call, and that must count as a failed operation.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}
