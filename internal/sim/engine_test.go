package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"es2/internal/enginestats"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if DurationOf(2*time.Millisecond) != 2*Millisecond {
		t.Fatalf("DurationOf mismatch")
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Fatalf("Millis = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-1500, "-1.500us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order broken: order=%v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.At(10, func() { fired = true })
	if !h.Active() {
		t.Fatal("handle should be active before firing")
	}
	h.Cancel()
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Active() {
		t.Fatal("cancelled handle still active")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(50, func() { fired = append(fired, 50) })
	e.Run(30)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30 (horizon)", e.Now())
	}
	e.Run(100)
	if len(fired) != 2 {
		t.Fatalf("second Run should fire the remaining event, fired=%v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(Microsecond, tick)
		}
	}
	e.After(0, tick)
	e.RunAll()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*Microsecond {
		t.Fatalf("Now = %v, want 99us", e.Now())
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.RunAll()
}

func TestEngineNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	NewEngine(1).At(10, nil)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(1, func() { n++; e.Stop() })
	e.At(2, func() { n++ })
	e.RunAll()
	if n != 1 {
		t.Fatalf("n = %d, want 1 (Stop should halt execution)", n)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestEngineStepSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	h := e.At(1, func() {})
	fired := false
	e.At(2, func() { fired = true })
	h.Cancel()
	if !e.Step() {
		t.Fatal("Step should execute the live event")
	}
	if !fired {
		t.Fatal("live event did not fire")
	}
}

func TestEngineEventsFired(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.RunAll()
	if e.EventsFired() != 5 {
		t.Fatalf("EventsFired = %d, want 5", e.EventsFired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// Property: events fire in non-decreasing time order regardless of the
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fireTimes []Time
		for _, d := range delays {
			e.At(Time(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.RunAll()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.ExpFloat64(); v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpDurationMean(t *testing.T) {
	r := NewRand(9)
	const mean = 100 * Microsecond
	var sum Time
	const n = 200000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 0 || d > 20*mean {
			t.Fatalf("ExpDuration out of range: %v", d)
		}
		sum += d
	}
	got := float64(sum) / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Fatalf("ExpDuration empirical mean %.0f, want ~%d", got, int64(mean))
	}
}

func TestRandJitter(t *testing.T) {
	r := NewRand(5)
	base := 1000 * Nanosecond
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.25)
		if v < 750 || v > 1250 {
			t.Fatalf("Jitter out of range: %v", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("Jitter with f=0 must return base")
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(11)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked generators should differ")
	}
}

func TestEngineHeapStats(t *testing.T) {
	e := NewEngine(1)
	hs := e.HeapStats()
	if hs.Pushes != 0 || hs.Pops != 0 || hs.MaxDepth != 0 || hs.MeanDepth != 0 || hs.Pending != 0 {
		t.Fatalf("fresh engine heap stats not zero: %+v", hs)
	}
	e.At(10, func() {})
	e.At(20, func() {})
	e.At(30, func() {})
	hs = e.HeapStats()
	if hs.Pushes != 3 || hs.MaxDepth != 3 || hs.Pending != 3 {
		t.Fatalf("after 3 pushes: %+v", hs)
	}
	// Depth at push time was 1, 2, 3 → mean 2.
	if hs.MeanDepth != 2 {
		t.Fatalf("MeanDepth = %v, want 2", hs.MeanDepth)
	}
	e.RunAll()
	hs = e.HeapStats()
	if hs.Pops != 3 || hs.Pending != 0 {
		t.Fatalf("after drain: %+v", hs)
	}
	if hs.Fixes != 0 {
		t.Fatalf("engine reported in-place fixes: %+v", hs)
	}
}

func TestEngineHeapStatsCountsCancelledPops(t *testing.T) {
	e := NewEngine(1)
	h := e.At(10, func() {})
	h.Cancel()
	e.At(20, func() {})
	e.Run(100)
	hs := e.HeapStats()
	// Both handles leave the heap: the cancelled one at Cancel, which
	// counts as a pop, the live one via Step.
	if hs.Pushes != 2 || hs.Pops != 2 {
		t.Fatalf("pushes/pops = %d/%d, want 2/2", hs.Pushes, hs.Pops)
	}
}

func TestEngineSetStats(t *testing.T) {
	e := NewEngine(1)
	if e.Stats() != nil {
		t.Fatalf("fresh engine has a collector")
	}
	c := enginestats.New(1) // sample every event
	e.SetStats(c)
	if e.Stats() != c {
		t.Fatalf("Stats() did not return the attached collector")
	}
	fired := 0
	e.At(10, func() { fired++ })
	e.At(10, func() { fired++ })
	e.At(25, func() { fired++ })
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3 (collector must pass events through)", fired)
	}
	r := c.Report(e.EventsFired(), e.HeapStats(), e.Now().Seconds(), 0)
	if r.EventsFired != 3 || r.Heap.Pushes != 3 {
		t.Fatalf("report fired/pushes = %d/%d, want 3/3", r.EventsFired, r.Heap.Pushes)
	}
	// Two distinct instants executed: tick 10 ran 2 events, tick 25 ran 1.
	if r.Ticks != 2 {
		t.Fatalf("Ticks = %d, want 2", r.Ticks)
	}
	e.SetStats(nil)
	if e.Stats() != nil {
		t.Fatalf("SetStats(nil) did not detach")
	}
}

func TestEngineZeroHandle(t *testing.T) {
	var h Handle
	h.Cancel()
	if h.Active() {
		t.Fatal("zero Handle reports an active event")
	}
}

// A handle whose event has fired or been cancelled must not reach a
// later event that reuses its slot.
func TestEngineStaleHandleLeavesReusedSlotAlone(t *testing.T) {
	for _, how := range []string{"fired", "cancelled"} {
		e := NewEngine(1)
		old := e.At(10, func() {})
		if how == "fired" {
			e.RunAll()
		} else {
			old.Cancel()
		}
		fired := false
		fresh := e.At(20, func() { fired = true })
		if fresh.slot != old.slot {
			t.Fatalf("%s: new event took slot %d, want the freed slot %d", how, fresh.slot, old.slot)
		}
		old.Cancel()
		if old.Active() {
			t.Fatalf("%s: stale handle reports active", how)
		}
		if !fresh.Active() {
			t.Fatalf("%s: stale Cancel deactivated the event reusing its slot", how)
		}
		e.RunAll()
		if !fired {
			t.Fatalf("%s: stale Cancel cancelled the event reusing its slot", how)
		}
	}
}

// TestEngineMatchesReferenceModel drives the engine and a plain list of
// pending events with the same random mix of At, Cancel, Step and
// Run(horizon) — including events scheduled at now and callbacks that
// cancel themselves, cancel others or schedule more — and checks that
// the engine always fires the earliest pending event by (t, seq), that
// the queue holds exactly the pending events, and that the heap stays
// well formed.
func TestEngineMatchesReferenceModel(t *testing.T) {
	type event struct {
		t       Time
		seq     uint64
		h       Handle
		pending bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		var evs []*event
		var nextSeq uint64
		earliest := func() *event {
			var best *event
			for _, x := range evs {
				if x.pending && (best == nil || x.t < best.t || x.t == best.t && x.seq < best.seq) {
					best = x
				}
			}
			return best
		}
		cancelAny := func() {
			if len(evs) > 0 {
				x := evs[rng.Intn(len(evs))]
				x.h.Cancel()
				x.pending = false
			}
		}
		var schedule func(at Time)
		schedule = func(at Time) {
			x := &event{t: at, seq: nextSeq, pending: true}
			nextSeq++
			evs = append(evs, x)
			x.h = e.At(at, func() {
				if want := earliest(); want != x {
					t.Fatalf("seed %d: fired (t=%d seq=%d), model expects %+v", seed, x.t, x.seq, want)
				}
				if e.Now() != x.t {
					t.Fatalf("seed %d: clock %d at event for %d", seed, e.Now(), x.t)
				}
				x.pending = false
				if x.h.Active() {
					t.Fatalf("seed %d: handle active inside its own callback", seed)
				}
				switch rng.Intn(6) {
				case 0:
					x.h.Cancel() // self-cancel: must be a no-op
				case 1:
					schedule(e.Now())
				case 2:
					cancelAny()
				case 3:
					schedule(e.Now() + Time(rng.Intn(20)))
				}
			})
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				schedule(e.Now() + Time(rng.Intn(50)))
			case r < 6:
				cancelAny()
			case r < 8:
				want := earliest() != nil
				if got := e.Step(); got != want {
					t.Fatalf("seed %d op %d: Step = %t, model has pending = %t", seed, op, got, want)
				}
			default:
				until := e.Now() + Time(rng.Intn(40))
				e.Run(until)
				if e.Now() != until {
					t.Fatalf("seed %d op %d: Run(%d) left clock at %d", seed, op, until, e.Now())
				}
				if x := earliest(); x != nil && x.t <= until {
					t.Fatalf("seed %d op %d: Run(%d) left event at %d pending", seed, op, until, x.t)
				}
			}
			pending := 0
			for _, x := range evs {
				if x.h.Active() != x.pending {
					t.Fatalf("seed %d op %d: Active = %t, model says pending = %t", seed, op, x.h.Active(), x.pending)
				}
				if x.pending {
					pending++
				}
			}
			if e.Pending() != pending {
				t.Fatalf("seed %d op %d: Pending = %d, model has %d pending", seed, op, e.Pending(), pending)
			}
			if err := e.checkHeap(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		e.RunAll()
		if x := earliest(); x != nil {
			t.Fatalf("seed %d: RunAll left %+v pending", seed, x)
		}
	}
}

// checkHeap verifies the queue's invariants: every entry's slot holds
// the entry's sequence number and queue index, and no entry sorts
// before its parent by (t, seq).
func (e *Engine) checkHeap() error {
	for i, x := range e.queue {
		s := e.slots[x.slot]
		if s.seq != x.seq {
			return fmt.Errorf("queue[%d] (seq %d) sits in slot %d holding seq %d", i, x.seq, x.slot, s.seq)
		}
		if int(s.pos) != i {
			return fmt.Errorf("queue[%d] (seq %d) has stored pos %d", i, x.seq, s.pos)
		}
		if p := (i - 1) / 4; i > 0 && x.before(e.queue[p]) {
			return fmt.Errorf("queue[%d] (t=%d seq=%d) sorts before its parent queue[%d] (t=%d seq=%d)",
				i, x.t, x.seq, p, e.queue[p].t, e.queue[p].seq)
		}
	}
	return nil
}

// A scheduler core arms a far-future timeslice timer on every dispatch
// and cancels it when the thread blocks microseconds later. Each
// cancelled timer must leave the queue at once, so the queue holds only
// the live events however many timers come and go.
func TestEngineSliceTimerChurnKeepsQueueLive(t *testing.T) {
	const n = 64
	e := NewEngine(1)
	expired := 0
	sliceExpired := func() { expired++ }
	var run func()
	run = func() {
		slice := e.After(e.Rand().Jitter(10*Millisecond, 0.5), sliceExpired)
		e.After(e.Rand().Duration(10*Microsecond), run)
		slice.Cancel()
	}
	for i := 0; i < n; i++ {
		e.At(Time(i), run)
	}
	for i := 0; i < 100*n; i++ {
		if !e.Step() {
			t.Fatalf("step %d: queue drained", i)
		}
		if e.Pending() != n {
			t.Fatalf("step %d: Pending = %d, want %d", i, e.Pending(), n)
		}
	}
	if expired != 0 {
		t.Fatalf("%d cancelled slice timers fired", expired)
	}
	if hs := e.HeapStats(); hs.MaxDepth > n+1 || hs.Pushes != hs.Pops+uint64(hs.Pending) {
		t.Fatalf("heap stats %+v: want max depth <= %d and pushes = pops + pending", hs, n+1)
	}
	if err := e.checkHeap(); err != nil {
		t.Fatal(err)
	}
}

// rescheduling fills an engine with depth events, each of which
// reschedules itself an exponential gap later when it fires, so the
// queue depth stays at depth.
func rescheduling(depth int) *Engine {
	e := NewEngine(1)
	gap := Time(depth) * Microsecond
	var fire func()
	fire = func() { e.After(e.Rand().ExpDuration(gap), fire) }
	for i := 0; i < depth; i++ {
		e.At(e.Rand().Duration(gap), fire)
	}
	return e
}

func TestEngineAtDoesNotAllocate(t *testing.T) {
	e := rescheduling(1000)
	for i := 0; i < 10000; i++ { // warm the slab and the heap
		e.Step()
	}
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("At+Step allocates %.1f objects per event, want 0", n)
	}
	noop := func() {}
	if n := testing.AllocsPerRun(1000, func() {
		e.After(Millisecond, noop).Cancel()
		e.Step()
	}); n != 0 {
		t.Fatalf("At+Cancel+Step allocates %.1f objects per event, want 0", n)
	}
}

var benchDepths = []int{1000, 20000}

// BenchmarkAtStep times one Step plus the At its event makes.
func BenchmarkAtStep(b *testing.B) {
	for _, depth := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := rescheduling(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkCancel times a timer armed and cancelled before it fires,
// beside the live At+Step that keeps the queue at depth.
func BenchmarkCancel(b *testing.B) {
	for _, depth := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := rescheduling(depth)
			gap := Time(depth) * Microsecond
			noop := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(e.Rand().ExpDuration(gap), noop).Cancel()
				e.Step()
			}
		})
	}
}
