package virtio

import (
	"testing"
	"testing/quick"

	"es2/internal/metrics"
	"es2/internal/sim"
)

func TestAddPopRoundTrip(t *testing.T) {
	q := New("tx", 4)
	if !q.Add(Desc{Len: 100}) {
		t.Fatal("Add failed on empty queue")
	}
	d, ok := q.Pop()
	if !ok || d.Len != 100 {
		t.Fatalf("Pop = %+v,%t", d, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty avail should fail")
	}
}

func TestRingCapacity(t *testing.T) {
	q := New("tx", 3)
	for i := 0; i < 3; i++ {
		if !q.Add(Desc{Len: i}) {
			t.Fatalf("Add %d failed", i)
		}
	}
	if q.Add(Desc{}) {
		t.Fatal("Add beyond capacity should fail")
	}
	if !q.Full() || q.Free() != 0 {
		t.Fatal("Full/Free wrong")
	}
	// Descriptors stay outstanding until the driver reclaims used ones.
	d, _ := q.Pop()
	if q.Add(Desc{}) {
		t.Fatal("popped-but-not-completed descriptor must still occupy the ring")
	}
	q.PushUsed(d)
	if q.Add(Desc{}) {
		t.Fatal("used-but-unreclaimed descriptor must still occupy the ring")
	}
	q.CollectUsed(0)
	if !q.Add(Desc{}) {
		t.Fatal("Add should succeed after reclamation")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := New("tx", 16)
	for i := 0; i < 10; i++ {
		q.Add(Desc{Len: i})
	}
	for i := 0; i < 10; i++ {
		d, ok := q.Pop()
		if !ok || d.Len != i {
			t.Fatalf("Pop %d = %+v,%t", i, d, ok)
		}
	}
}

func TestKickSuppression(t *testing.T) {
	q := New("tx", 8)
	kicked := 0
	q.OnKick(func() { kicked++ })
	if !q.Kick() {
		t.Fatal("unsuppressed kick should deliver")
	}
	q.SetNoNotify(true)
	if q.Kick() {
		t.Fatal("suppressed kick should not deliver")
	}
	q.SetNoNotify(false)
	q.Kick()
	if kicked != 2 {
		t.Fatalf("kick callback ran %d times, want 2", kicked)
	}
	if q.Kicks != 2 || q.SuppressedKicks != 1 {
		t.Fatalf("kick stats: %d/%d", q.Kicks, q.SuppressedKicks)
	}
}

func TestInterruptSuppression(t *testing.T) {
	q := New("rx", 8)
	raised := 0
	q.OnInterrupt(func() { raised++ })
	if !q.Signal() {
		t.Fatal("unsuppressed signal should deliver")
	}
	q.SetNoInterrupt(true)
	if q.Signal() {
		t.Fatal("suppressed signal should not deliver")
	}
	if !q.InterruptSuppressed() {
		t.Fatal("InterruptSuppressed should be true")
	}
	q.SetNoInterrupt(false)
	q.Signal()
	if raised != 2 {
		t.Fatalf("interrupt callback ran %d times, want 2", raised)
	}
	if q.Signals != 2 || q.SuppressedSignals != 1 {
		t.Fatalf("signal stats: %d/%d", q.Signals, q.SuppressedSignals)
	}
}

func TestCollectUsedPartial(t *testing.T) {
	q := New("rx", 16)
	for i := 0; i < 5; i++ {
		q.Add(Desc{Len: i})
		d, _ := q.Pop()
		q.PushUsed(d)
	}
	got := q.CollectUsed(2)
	if len(got) != 2 || got[0].Len != 0 || got[1].Len != 1 {
		t.Fatalf("CollectUsed(2) = %+v", got)
	}
	got = q.CollectUsed(0)
	if len(got) != 3 || got[0].Len != 2 {
		t.Fatalf("CollectUsed(0) = %+v", got)
	}
	if q.UsedLen() != 0 {
		t.Fatal("used ring should be empty")
	}
}

func TestStringAndAccessors(t *testing.T) {
	q := New("tx", 256)
	if q.Name() != "tx" || q.Size() != 256 {
		t.Fatal("accessors wrong")
	}
	if q.String() == "" {
		t.Fatal("String empty")
	}
	mustPanic(t, func() { New("bad", 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// Property: under any interleaving of operations the queue neither
// loses nor duplicates descriptors, and outstanding never exceeds size.
func TestVirtqueueConservationProperty(t *testing.T) {
	type op byte
	f := func(ops []byte) bool {
		q := New("p", 8)
		next := 0        // next descriptor id to add
		inFlight := 0    // popped but not yet pushed used
		var popped []int // ids held by the device
		seen := make(map[int]bool)
		for _, o := range ops {
			switch o % 4 {
			case 0: // add
				if q.Add(Desc{Len: next}) {
					next++
				}
			case 1: // pop
				if d, ok := q.Pop(); ok {
					popped = append(popped, d.Len)
					inFlight++
				}
			case 2: // push used
				if inFlight > 0 {
					id := popped[0]
					popped = popped[1:]
					q.PushUsed(Desc{Len: id})
					inFlight--
				}
			case 3: // collect
				for _, d := range q.CollectUsed(0) {
					if seen[d.Len] {
						return false // duplicate
					}
					seen[d.Len] = true
				}
			}
			if q.AvailLen()+q.UsedLen() > q.Size() {
				return false
			}
			if q.Free() < 0 {
				return false
			}
		}
		// Drain everything and verify all added ids come back once.
		for {
			d, ok := q.Pop()
			if !ok {
				break
			}
			q.PushUsed(d)
		}
		for inFlight > 0 {
			id := popped[0]
			popped = popped[1:]
			q.PushUsed(Desc{Len: id})
			inFlight--
		}
		for _, d := range q.CollectUsed(0) {
			if seen[d.Len] {
				return false
			}
			seen[d.Len] = true
		}
		if len(seen) != next {
			return false // lost a descriptor
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// cycle moves n descriptors through the whole ring round trip, so the
// avail and used rings' heads advance by n.
func cycle(q *Virtqueue, n int) {
	for i := 0; i < n; i++ {
		q.Add(Desc{})
		d, _ := q.Pop()
		q.PushUsed(d)
		q.CollectUsed(0)
	}
}

func TestFIFOAcrossWrap(t *testing.T) {
	q := New("tx", 8)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			if !q.Add(Desc{Len: next}) {
				t.Fatalf("round %d: Add failed with %d free", round, q.Free())
			}
			next++
		}
		for i := 0; i < 5; i++ {
			d, ok := q.Pop()
			if !ok || d.Len != want {
				t.Fatalf("round %d: Pop = %+v,%t, want Len %d", round, d, ok, want)
			}
			want++
			q.PushUsed(d)
		}
		q.CollectUsed(0)
	}
	if q.avail.Cap() != 8 {
		t.Fatalf("avail ring grew to %d under a bound of 8", q.avail.Cap())
	}
}

func TestFIFOAcrossResizeWhileWrapped(t *testing.T) {
	q := New("tx", 64)
	cycle(q, minRing-2) // avail head now near the end of a minRing buffer
	next := 0
	for i := 0; i < minRing; i++ {
		q.Add(Desc{Len: next})
		next++
	}
	if q.avail.Len() != minRing || q.avail.Cap() != minRing {
		t.Fatalf("setup: want a full %d-entry ring, got %d of %d", minRing, q.avail.Len(), q.avail.Cap())
	}
	for i := 0; i < 3*minRing; i++ { // grows twice, first while wrapped
		q.Add(Desc{Len: next})
		next++
	}
	if q.avail.Cap() != 4*minRing {
		t.Fatalf("ring capacity %d, want %d", q.avail.Cap(), 4*minRing)
	}
	for want := 0; want < next; want++ {
		d, ok := q.Pop()
		if !ok || d.Len != want {
			t.Fatalf("Pop = %+v,%t, want Len %d", d, ok, want)
		}
	}
}

// TestReserveSizesRingOnce checks that Reserve grows the avail ring
// to the requested size in one step (capped at the queue size) and
// keeps a wrapped ring's contents in order.
func TestReserveSizesRingOnce(t *testing.T) {
	q := New("rx", 48)
	cycle(q, minRing-2) // avail head near the end of a minRing buffer
	for i := 0; i < 4; i++ {
		q.Add(Desc{Len: i})
	}
	q.Reserve(1000)
	if q.avail.Cap() != 48 {
		t.Fatalf("capacity %d after Reserve(1000), want the queue size 48", q.avail.Cap())
	}
	q.Reserve(10) // smaller than the buffer: no-op
	if q.avail.Cap() != 48 {
		t.Fatalf("capacity %d after a smaller Reserve, want 48", q.avail.Cap())
	}
	for next := q.AvailLen(); q.Add(Desc{Len: next}); next++ {
	}
	for want := 0; want < 48; want++ {
		d, ok := q.Pop()
		if !ok || d.Len != want {
			t.Fatalf("Pop = %+v,%t, want Len %d", d, ok, want)
		}
	}
}

func TestFullAndFreeAtSizeBound(t *testing.T) {
	// A size that is not a power of two caps the doubling short.
	q := New("tx", 5)
	cycle(q, 3)
	for i := 0; i < 5; i++ {
		if q.Free() != 5-i || q.Full() {
			t.Fatalf("after %d adds: Free=%d Full=%t", i, q.Free(), q.Full())
		}
		if !q.Add(Desc{Len: i}) {
			t.Fatalf("Add %d failed below the bound", i)
		}
	}
	if !q.Full() || q.Free() != 0 || q.Add(Desc{}) {
		t.Fatalf("at the bound: Full=%t Free=%d", q.Full(), q.Free())
	}
	if q.avail.Cap() != 5 {
		t.Fatalf("avail ring capacity %d, want the size bound 5", q.avail.Cap())
	}
	d, _ := q.Pop()
	q.PushUsed(d)
	if !q.Full() {
		t.Fatal("completed but unreclaimed descriptor must keep the ring full")
	}
	q.CollectUsed(0)
	if q.Full() || q.Free() != 1 || !q.Add(Desc{Len: 5}) {
		t.Fatalf("after reclaim: Full=%t Free=%d", q.Full(), q.Free())
	}
	for want := 1; want <= 5; want++ {
		if d, ok := q.Pop(); !ok || d.Len != want {
			t.Fatalf("Pop = %+v,%t, want Len %d", d, ok, want)
		}
	}
}

func TestCollectUsedAcrossWrap(t *testing.T) {
	q := New("rx", 8)
	cycle(q, 6)
	for i := 0; i < 7; i++ {
		q.Add(Desc{Len: i})
		d, _ := q.Pop()
		q.PushUsed(d)
	}
	got := append([]Desc(nil), q.CollectUsed(4)...)
	got = append(got, q.CollectUsed(0)...)
	if len(got) != 7 {
		t.Fatalf("collected %d descriptors, want 7", len(got))
	}
	for i, d := range got {
		if d.Len != i {
			t.Fatalf("collected[%d].Len = %d, want %d", i, d.Len, i)
		}
	}
	if q.UsedLen() != 0 || q.Free() != 8 {
		t.Fatalf("after collect: used=%d free=%d", q.UsedLen(), q.Free())
	}
}

func TestInvariantsAndResidencyOnWrappedRing(t *testing.T) {
	q := New("rx", 8)
	h := metrics.NewLogHistogram()
	var now sim.Time
	q.SetResidencyProbe(h, func() sim.Time { return now })
	cycle(q, 5)
	for i := 0; i < 6; i++ {
		now = sim.Time(i)
		q.Add(Desc{})
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	now = 100
	for i := 0; i < 6; i++ {
		d, _ := q.Pop()
		q.PushUsed(d)
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Five cycled descriptors with zero residency, then six published
	// at 0..5 and popped at 100.
	if h.Count() != 11 || h.Sum() != 6*100-15 || h.Max() != 100 {
		t.Fatalf("residency count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

func TestRoundTripDoesNotAllocate(t *testing.T) {
	q := New("rx", 256)
	for q.Add(Desc{Len: 1500}) {
	}
	roundTrip := func() {
		d, _ := q.Pop()
		q.PushUsed(d)
		for _, u := range q.CollectUsed(0) {
			q.Add(u)
		}
	}
	roundTrip() // size the batch buffer
	if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
		t.Fatalf("Pop+PushUsed+CollectUsed+Add allocates %.1f objects, want 0", n)
	}
}
