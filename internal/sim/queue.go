package sim

// Queue is a growable FIFO ring, the one queue behind every strict FIFO of
// the model: the kernel's same-instant lane, mailbox values and receivers,
// link flights, router and qdisc backlogs, interrupt work, resource
// waiters, TCP send buffers and TCP reorder buffers (slots indexed by
// sequence number). The buffer's length is zero or a power of two, so an
// index wraps with a mask. It grows to the queue's high-water
// mark once and is reused from then on, so a warmed Push and Pop do not
// allocate. Pop zeroes the slot it vacates, so a popped packet, closure or
// message is collectible while the buffer lives on. The zero value is an
// empty queue.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the full buffer, moving the elements to the start of the new
// one in order: those from head to the end of the old buffer, then those
// that wrapped to its start.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 1))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the element at the head. It panics on an empty
// queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty Queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th element from the head (0 is the head).
// It panics unless 0 <= i < Len(). The pointer is valid only until the next
// Push, which may move the elements to a new buffer.
func (q *Queue[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("sim: Queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Clear empties the queue. It keeps the buffer for reuse and zeroes it, so
// nothing the queue held stays reachable through it.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
