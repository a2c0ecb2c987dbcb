package sim

// FIFO is a first-in, first-out queue on a ring: the one queue of the stack
// (DESIGN.md §"Queues and joins"). A pop moves a head index, so a queue that
// swings between full and empty keeps one backing array — a resliced slice
// (q = q[1:]) walks off the front of its array and reallocates under
// sustained traffic, a copy-down pop is linear in the depth — and a popped
// slot is zeroed, so the ring pins nothing it no longer holds. The zero value
// is an empty queue. The array doubles from 16 and never shrinks.
type FIFO[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// slot maps a position, 0 the oldest, to its index in buf. The wrap is a
// compare, not a modulo: this runs once per push.
func (q *FIFO[T]) slot(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *FIFO[T]) grow() {
	grown := make([]T, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		grown[i] = q.buf[q.slot(i)]
	}
	q.buf, q.head = grown, 0
}

// Push appends v behind the newest element.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = v
	q.n++
}

// PushFront puts v ahead of the oldest element: the next Pop returns it.
func (q *FIFO[T]) PushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = q.slot(len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

// Front returns the oldest element. The queue must not be empty.
func (q *FIFO[T]) Front() T { return q.At(0) }

// At returns the i-th oldest element, 0 <= i < Len.
func (q *FIFO[T]) At(i int) T {
	if uint(i) >= uint(q.n) {
		panic("sim: FIFO index out of range")
	}
	return q.buf[q.slot(i)]
}

// Pop removes and returns the oldest element. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.At(0)
	var zero T
	q.buf[q.head] = zero
	q.head = q.slot(1)
	q.n--
	return v
}
