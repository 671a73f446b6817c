package server

// ring is a FIFO queue over a circular buffer: the accept queue, the
// processor pools' run queues and the connection pool's waiter list. A
// slice popped with q = q[1:] gives up a slot of capacity per pop, so a
// shallow queue reallocates on almost every push; the ring reuses its
// buffer, grows by doubling (a power of two, so indexing is a mask) and
// never shrinks. Popped slots are zeroed so the queue does not retain
// the requests and handlers that passed through it. The zero value is an
// empty queue with no buffer.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the queue must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles a full buffer, unwrapping it so the oldest element lands
// at index 0.
func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
