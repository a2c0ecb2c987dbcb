package sim

// Pool is a last-in, first-out free list: the one way the stack recycles an
// object (DESIGN.md §"Queues and joins"). Get hands back the most recently
// Put entry, so reuse order is a function of simulation state alone, and
// zeroes the slot it vacates, so the pool pins nothing it handed out. On an
// empty pool Get returns New(), or T's zero value when New is nil; set New
// before the first Get. The array starts at 64 entries, so a pool filled at
// set-up with a queue's worth of objects allocates it once; it doubles after
// that and never shrinks. Not safe for concurrent use.
type Pool[T any] struct {
	New  func() T
	free []T
}

// Len returns the number of pooled entries.
func (p *Pool[T]) Len() int { return len(p.free) }

// Get removes and returns the newest entry, or a fresh one when the pool is
// empty.
func (p *Pool[T]) Get() T {
	var zero T
	n := len(p.free) - 1
	if n < 0 {
		if p.New == nil {
			return zero
		}
		return p.New()
	}
	v := p.free[n]
	p.free[n] = zero
	p.free = p.free[:n]
	return v
}

// Put returns v to the pool.
func (p *Pool[T]) Put(v T) {
	if p.free == nil {
		p.free = make([]T, 0, 64)
	}
	p.free = append(p.free, v)
}
