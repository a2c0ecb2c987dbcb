package sim

import (
	"math/rand"
	"testing"
)

// TestPoolMatchesStack drives a pool and a reference slice stack through
// the same random Get/Put sequence: every Get returns what the stack pops.
func TestPoolMatchesStack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Pool[int]
	var ref []int
	next := 1
	for i := 0; i < 10000; i++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			p.Put(next)
			ref = append(ref, next)
			next++
		} else {
			want := ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			if got := p.Get(); got != want {
				t.Fatalf("step %d: Get = %d, want %d (newest first)", i, got, want)
			}
		}
		if p.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, p.Len(), len(ref))
		}
	}
}

// An empty pool builds its miss with New, or hands out the zero value when
// New is nil.
func TestPoolMiss(t *testing.T) {
	var zero Pool[[]byte]
	if b := zero.Get(); b != nil {
		t.Fatalf("Get on an empty pool without New = %v, want nil", b)
	}
	made := 0
	p := Pool[*int]{New: func() *int { made++; return new(int) }}
	a := p.Get()
	if a == nil || made != 1 {
		t.Fatalf("miss returned %v after %d New calls, want a fresh value from one", a, made)
	}
	p.Put(a)
	if b := p.Get(); b != a || made != 1 {
		t.Fatalf("hit returned %p after %d New calls, want the pooled %p and no New", b, made, a)
	}
}

// Get zeroes the slot it vacates, so the pool keeps nothing it handed out
// reachable.
func TestPoolGetClearsSlot(t *testing.T) {
	var p Pool[*int]
	for i := 0; i < 3; i++ {
		p.Put(new(int))
	}
	p.Get()
	p.Get()
	for i, v := range p.free[:cap(p.free)][p.Len():] {
		if v != nil {
			t.Fatalf("slot %d still holds a handed-out entry", p.Len()+i)
		}
	}
}

// A warm pool's Get/Put cycle allocates nothing.
func TestPoolCycleAllocatesNothing(t *testing.T) {
	p := Pool[*int]{New: func() *int { return new(int) }}
	for i := 0; i < 8; i++ {
		p.Put(new(int))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a, b := p.Get(), p.Get()
		p.Put(b)
		p.Put(a)
	})
	if allocs != 0 {
		t.Fatalf("a warm Get/Put cycle allocates %v objects, want 0", allocs)
	}
}
