package sim

// Ring is a FIFO (with a push-front for LIFO nesting) held in a
// circular buffer. It starts empty and doubles only when full, so a
// queue that stays short never pays for a large buffer, and neither
// end ever shifts the contents: PushBack, PushFront and PopFront are
// O(1) and allocate nothing once the ring has grown to its peak. The
// zero Ring is empty and ready to use.
//
// The model's in-flight work lives in Rings (vCPU task queues, exit
// handling, vhost work and backlog, wire deliveries), so one event's
// callback can be a method bound once to the ring's owner that reads
// the item at the head, instead of a fresh closure per item.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int // items held
}

// minRing is the capacity a Ring takes on its first push.
const minRing = 8

// Len returns the number of items held.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the number of items the ring holds before it next grows.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Grow sizes the buffer for c items (a no-op when it already holds
// that many), so an owner that bounds its ring, or is about to fill
// it, can size it in one step instead of doubling.
func (r *Ring[T]) Grow(c int) {
	if c > len(r.buf) {
		r.resize(c)
	}
}

// PushBack appends x at the tail.
func (r *Ring[T]) PushBack(x T) {
	if r.n == len(r.buf) {
		r.resize(max(2*len(r.buf), minRing))
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = x
	r.n++
}

// PushFront inserts x at the head, ahead of every item held.
func (r *Ring[T]) PushFront(x T) {
	if r.n == len(r.buf) {
		r.resize(max(2*len(r.buf), minRing))
	}
	r.head--
	if r.head < 0 {
		r.head += len(r.buf)
	}
	r.buf[r.head] = x
	r.n++
}

// Front returns a pointer to the head item; the ring must not be
// empty. The pointer is valid until the ring next grows, which any
// push may do: hold the ring's owner, not the pointer, across calls
// that can push.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// At returns a pointer to the i-th item from the head (0 is the head),
// with the same validity as Front.
func (r *Ring[T]) At(i int) *T {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

// PopFront removes and returns the head item; the ring must not be
// empty. The vacated slot is zeroed so the ring keeps nothing alive.
func (r *Ring[T]) PopFront() T {
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return x
}

// Clear removes every item, zeroing the vacated slots.
func (r *Ring[T]) Clear() {
	for r.n > 0 {
		r.PopFront()
	}
	r.head = 0
}

// resize moves the contents to a buffer of c items (c >= Len),
// unwrapping them to its front.
func (r *Ring[T]) resize(c int) {
	buf := make([]T, c)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
