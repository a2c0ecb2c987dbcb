package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSlice drives a FIFO and a plain slice with the same seeded
// mix of pushes at both ends and pops, through several growths and with the
// head wrapping the ring in both directions, and compares every element
// after every step.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q FIFO[int]
	var model []int
	grown, wraps := 0, 0
	for step := 0; step < 30000; step++ {
		// The bias flips every 500 steps, so the depth swells past several
		// doublings and drains to nothing, over and over.
		pop := 3
		if step/500%2 == 1 {
			pop = 8
		}
		size, head := len(q.buf), q.head
		switch op := rng.Intn(10); {
		case op < pop && len(model) > 0:
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
			if q.head < head {
				wraps++
			}
		case op == 9:
			q.PushFront(step)
			model = append([]int{step}, model...)
			if len(q.buf) == size && q.head > head {
				wraps++
			}
		default:
			q.Push(step)
			model = append(model, step)
		}
		if len(q.buf) > size {
			grown++
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		for i, want := range model {
			if got := q.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
		if len(model) > 0 && q.Front() != model[0] {
			t.Fatalf("step %d: Front = %d, want %d", step, q.Front(), model[0])
		}
	}
	if grown < 4 || wraps < 20 {
		t.Fatalf("ring grew %d times and wrapped %d times: the mix does not cover growth and wrap", grown, wraps)
	}
}

func TestFIFOIndexOutOfRangePanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	for name, fn := range map[string]func(){
		"At(Len)":      func() { q.At(1) },
		"At(-1)":       func() { q.At(-1) },
		"Pop of empty": func() { var e FIFO[int]; e.Pop() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFIFOSteadyStateAllocatesNothing holds the property every hand-written
// queue it replaced was written for: once grown to its high-water mark, a
// queue cycling at a steady depth never allocates.
func TestFIFOSteadyStateAllocatesNothing(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	for i := 0; i < 40; i++ {
		q.Push(v)
	}
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10000; i++ {
			q.Push(v)
			q.Pop()
		}
	}); avg != 0 {
		t.Fatalf("%.1f allocations per 10000 push/pop cycles at depth 40, want 0", avg)
	}
}

// TestFIFOPopReleasesElement checks the popped slot is zeroed: the ring must
// not keep alive what it no longer holds.
func TestFIFOPopReleasesElement(t *testing.T) {
	var q FIFO[*int]
	first := new(int)
	q.Push(first)
	q.Push(new(int))
	if q.Pop() != first {
		t.Fatal("Pop did not return the oldest element")
	}
	for i, p := range q.buf {
		if p == first {
			t.Fatalf("slot %d of the ring still points to the popped element", i)
		}
	}
}
