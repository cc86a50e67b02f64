package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// memStore is an in-memory CellStore for wiring tests.
type memStore struct {
	mu   sync.Mutex
	m    map[string]any
	gets atomic.Int64
	puts atomic.Int64
}

func newMemStore() *memStore { return &memStore{m: map[string]any{}} }

func (s *memStore) Get(key string) (any, bool) {
	s.gets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *memStore) Put(key string, v any) bool {
	s.puts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; dup {
		return false
	}
	s.m[key] = v
	return true
}

func TestStoreTierWriteThrough(t *testing.T) {
	st := newMemStore()
	e := New(2)
	e.SetStore(st)

	var computes atomic.Int64
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		computes.Add(1)
		return sp.Buffer * 2
	}

	if v := do(e, spec(8), fn); v.(int) != 16 {
		t.Fatalf("Do = %v", v)
	}
	s := e.Stats()
	if computes.Load() != 1 || s.Misses != 1 || s.StoreMisses != 1 || s.StoreWrites != 1 {
		t.Fatalf("cold run: computes=%d stats=%+v", computes.Load(), s)
	}

	// Same cell again: in-memory hit, store untouched.
	gets := st.gets.Load()
	do(e, spec(8), fn)
	if st.gets.Load() != gets {
		t.Fatal("warm in-memory hit consulted the store")
	}

	// Fresh engine sharing the store: answered from the store, no
	// compute, no miss — the Stats contract the acceptance criteria
	// assert on.
	e2 := New(2)
	e2.SetStore(st)
	if v := do(e2, spec(8), fn); v.(int) != 16 {
		t.Fatalf("store-hit Do = %v", v)
	}
	s2 := e2.Stats()
	if computes.Load() != 1 {
		t.Fatalf("store hit recomputed (computes=%d)", computes.Load())
	}
	if s2.Misses != 0 || s2.StoreHits != 1 || s2.Hits != 0 {
		t.Fatalf("warm-store stats = %+v", s2)
	}
}

func TestStoreTierCoalescesWaiters(t *testing.T) {
	st := newMemStore()
	st.Put(spec(8).Canonical().Key(), 99)
	e := New(1)
	e.SetStore(st)
	var computes atomic.Int64
	fn := func(CellSpec, uint64, Scratch) any { computes.Add(1); return 0 }

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := do(e, spec(8), fn); v.(int) != 99 {
				t.Errorf("Do = %v, want 99", v)
			}
		}()
	}
	wg.Wait()
	if computes.Load() != 0 {
		t.Fatalf("store-resident cell computed %d times", computes.Load())
	}
	s := e.Stats()
	if s.StoreHits != 1 || s.Misses != 0 || s.Hits != 7 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestResetCacheDetachesStore(t *testing.T) {
	st := newMemStore()
	e := New(2)
	e.SetStore(st)
	var computes atomic.Int64
	fn := func(CellSpec, uint64, Scratch) any { computes.Add(1); return 1 }

	do(e, spec(8), fn)
	if e.Store() == nil {
		t.Fatal("store not attached")
	}
	e.ResetCache()
	if e.Store() != nil {
		t.Fatal("ResetCache left the store attached")
	}
	s := e.Stats()
	if s.StoreHits != 0 || s.StoreMisses != 0 || s.StoreWrites != 0 {
		t.Fatalf("store counters not reset: %+v", s)
	}
	// A genuine cold run: the store holds the cell, but a reset engine
	// must recompute it.
	do(e, spec(8), fn)
	if computes.Load() != 2 {
		t.Fatalf("post-reset run did not recompute (computes=%d)", computes.Load())
	}
}

func TestStorePanicNotPersisted(t *testing.T) {
	st := newMemStore()
	e := New(1)
	e.SetStore(st)
	func() {
		defer func() { recover() }()
		do(e, spec(8), func(CellSpec, uint64, Scratch) any { panic("boom") })
	}()
	if st.puts.Load() != 0 {
		t.Fatal("panicking cell reached the store")
	}
	if s := e.Stats(); s.StoreWrites != 0 {
		t.Fatalf("stats = %+v", s)
	}
}
