package sim

import (
	"fmt"

	"es2/internal/enginestats"
)

// Handle identifies a scheduled event so that it can be cancelled.
// Handles are small values returned by Engine.At and Engine.After; the
// zero Handle names no event. A handle names its event by slot and
// sequence number, so once the event has fired or been cancelled and
// its slot reused, the old handle can no longer reach the new event.
type Handle struct {
	e    *Engine
	slot int32
	seq  uint64
}

// Cancel prevents the event from firing and removes it from the queue
// in O(log n). Cancelling the zero Handle or an event that has already
// fired or been cancelled is a no-op. Cancel must be called from the
// engine goroutine (i.e. from inside event callbacks), like every other
// engine method.
func (h Handle) Cancel() {
	if h.Active() {
		h.e.remove(int(h.e.slots[h.slot].pos))
		h.e.release(h.slot)
	}
}

// Active reports whether the event is still pending.
func (h Handle) Active() bool { return h.e != nil && h.e.slots[h.slot].seq == h.seq }

// freeSeq marks an unoccupied slot; no event is ever given this
// sequence number.
const freeSeq = ^uint64(0)

// eventSlot holds what an event needs beyond its queue entry, and the
// entry's position so that Cancel can remove it. Slots are recycled
// through the engine's free list, so scheduling allocates nothing once
// the slab has grown to the run's peak of pending events.
type eventSlot struct {
	fn  func()
	seq uint64 // the occupying event's sequence number, freeSeq when free
	pos int32  // the event's index in the queue while it is pending
	// perfLabel is the enginestats subsystem label of a sampled event
	// (0 for the unsampled majority and when stats are off).
	perfLabel int32
}

// entry is one queued event: its firing instant, its sequence number
// (the tie-break) and its slot. Entries hold no pointers, so moving
// them through the heap needs no GC write barriers.
type entry struct {
	t    Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// push inserts x into the 4-ary min-heap ordered by (t, seq).
func (e *Engine) push(x entry) {
	e.queue = append(e.queue, x)
	e.siftUp(len(e.queue)-1, x)
}

// siftUp places x at index i or above it, moving larger parents down.
func (e *Engine) siftUp(i int, x entry) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		e.place(i, q[p])
		i = p
	}
	e.place(i, x)
}

// siftDown places x at index i or below it, moving smaller children up.
func (e *Engine) siftDown(i int, x entry) {
	q := e.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(x) {
			break
		}
		e.place(i, q[m])
		i = m
	}
	e.place(i, x)
}

// place stores x at queue index i and records i in x's slot.
func (e *Engine) place(i int, x entry) {
	e.queue[i] = x
	e.slots[x.slot].pos = int32(i)
}

// remove deletes and returns the entry at queue index i, filling the
// gap with the last entry, and counts the removal as a pop.
func (e *Engine) remove(i int) entry {
	q := e.queue
	x := q[i]
	n := len(q) - 1
	last := q[n]
	e.queue = q[:n]
	if i < n {
		if i > 0 && last.before(q[(i-1)/4]) {
			e.siftUp(i, last)
		} else {
			e.siftDown(i, last)
		}
	}
	e.heapPops++
	return x
}

// release frees an event's slot for reuse.
func (e *Engine) release(slot int32) {
	e.slots[slot] = eventSlot{seq: freeSeq}
	e.free = append(e.free, slot)
}

// Engine is a discrete-event simulation executive. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   []entry     // 4-ary min-heap by (t, seq) of pending events
	slots   []eventSlot // indexed by entry.slot
	free    []int32     // unoccupied slots
	rng     *Rand
	stopped bool

	// Stats, useful for harness introspection and tests. The heap
	// counters are maintained unconditionally — they are plain
	// increments — and read through HeapStats.
	fired      uint64
	heapPushes uint64
	heapPops   uint64
	heapFixes  uint64
	maxDepth   int
	depthSum   uint64 // queue length summed at each push (mean depth)

	// stats, when non-nil, receives the event stream for wall-clock
	// performance telemetry (see SetStats).
	stats *enginestats.Collector
}

// NewEngine returns an engine with its clock at zero and randomness
// seeded from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently queued. Cancelled
// events leave the queue at Cancel, so every queued event is live.
func (e *Engine) Pending() int { return len(e.queue) }

// HeapStats snapshots the event-queue counters: pushes, pops, in-place
// fixes, max and mean queue depth, and the current pending count.
func (e *Engine) HeapStats() enginestats.HeapStats {
	hs := enginestats.HeapStats{
		Pushes:   e.heapPushes,
		Pops:     e.heapPops,
		Fixes:    e.heapFixes,
		MaxDepth: e.maxDepth,
		Pending:  len(e.queue),
	}
	if e.heapPushes > 0 {
		hs.MeanDepth = float64(e.depthSum) / float64(e.heapPushes)
	}
	return hs
}

// SetStats attaches a wall-clock performance collector: subsequent
// events flow through it for events-per-tick accounting and sampled
// per-subsystem wall/allocation attribution. Pass nil to detach.
// Attaching a collector never perturbs the simulation — event order
// and simulated results are identical with and without one.
func (e *Engine) SetStats(c *enginestats.Collector) { e.stats = c }

// Stats returns the attached performance collector (nil when off).
func (e *Engine) Stats() *enginestats.Collector { return e.stats }

// At schedules fn to run at instant t. Scheduling in the past panics:
// it always indicates a model bug, and silently clamping would hide it.
func (e *Engine) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: now=%v t=%v", e.now, t))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, eventSlot{})
	}
	h := Handle{e: e, slot: slot, seq: e.seq}
	e.seq++
	s := &e.slots[slot]
	s.fn, s.seq = fn, h.seq
	e.push(entry{t: t, seq: h.seq, slot: slot})
	e.heapPushes++
	n := len(e.queue)
	if n > e.maxDepth {
		e.maxDepth = n
	}
	e.depthSum += uint64(n)
	if e.stats != nil {
		s.perfLabel = e.stats.SampleSite()
	}
	return h
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step executes the single earliest pending event. It returns false when
// the queue is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	x := e.remove(0)
	if x.t < e.now {
		panic("sim: time went backwards")
	}
	e.now = x.t
	s := e.slots[x.slot]
	e.release(x.slot)
	e.fired++
	if st := e.stats; st != nil {
		st.NoteEvent(int64(x.t))
		if s.perfLabel != 0 {
			st.RunSampled(s.perfLabel, s.fn)
			return true
		}
	}
	s.fn()
	return true
}

// Run executes events until the clock would pass the until instant, the
// queue drains, or Stop is called. On return the clock reads exactly
// until (if the horizon was hit) or the time of the last event executed.
func (e *Engine) Run(until Time) {
	// Peek without popping so an over-horizon event survives for a
	// later Run call.
	for !e.stopped && len(e.queue) > 0 && e.queue[0].t <= until {
		e.Step()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Stop halts the engine: Run/RunAll/Step return immediately afterwards.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
