package sim

import "testing"

// TestRingMatchesReferenceModel drives a Ring and a plain slice with
// the same random mix of PushBack, PushFront, PopFront and Grow, so
// the ring wraps and grows in every position, full or not, and checks
// that both hold the same items in the same order after every
// operation.
func TestRingMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRand(seed)
		var r Ring[int]
		var model []int
		next := 0
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				r.PushBack(next)
				model = append(model, next)
				next++
			case k < 6:
				r.PushFront(next)
				model = append([]int{next}, model...)
				next++
			case k < 7 && op%7 == 0:
				c := r.Cap() + rng.Intn(5) - 2
				r.Grow(c)
				if r.Cap() < c {
					t.Fatalf("seed %d op %d: Cap = %d after Grow(%d)", seed, op, r.Cap(), c)
				}
			default:
				if len(model) == 0 {
					continue
				}
				if got := r.PopFront(); got != model[0] {
					t.Fatalf("seed %d op %d: PopFront = %d, want %d", seed, op, got, model[0])
				}
				model = model[1:]
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, r.Len(), len(model))
			}
			for i, want := range model {
				if got := *r.At(i); got != want {
					t.Fatalf("seed %d op %d: At(%d) = %d, want %d", seed, op, i, got, want)
				}
			}
			if len(model) > 0 && *r.Front() != model[0] {
				t.Fatalf("seed %d op %d: Front = %d, want %d", seed, op, *r.Front(), model[0])
			}
		}
	}
}

// TestRingGrowsWhileWrapped fills a ring whose contents wrap past the
// end of its buffer and checks the doubling unwraps them in order.
func TestRingGrowsWhileWrapped(t *testing.T) {
	var r Ring[int]
	for i := 0; i < minRing; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 5; i++ {
		r.PopFront()
		r.PushBack(minRing + i)
	}
	if r.head == 0 {
		t.Fatal("setup: ring is not wrapped")
	}
	r.PushBack(100) // full and wrapped: grows
	if len(r.buf) != 2*minRing {
		t.Fatalf("capacity = %d, want %d", len(r.buf), 2*minRing)
	}
	want := []int{5, 6, 7, 8, 9, 10, 11, 12, 100}
	for _, w := range want {
		if got := r.PopFront(); got != w {
			t.Fatalf("PopFront = %d, want %d", got, w)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after draining", r.Len())
	}
}

// TestRingReleasesPoppedItems checks that PopFront and Clear zero the
// slots they vacate, so a ring never keeps a delivered item alive.
func TestRingReleasesPoppedItems(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 6; i++ {
		v := i
		r.PushBack(&v)
	}
	r.PopFront()
	r.PopFront()
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Clear", r.Len())
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds an item", i)
		}
	}
}

// TestRingWarmDoesNotAllocate: once grown to its peak, pushing and
// popping allocates nothing.
func TestRingWarmDoesNotAllocate(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 64; i++ {
		r.PushBack(i)
	}
	r.Clear()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 48; i++ {
			r.PushBack(i)
		}
		r.PushFront(-1)
		for r.Len() > 0 {
			r.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ring allocates %.1f objects per run, want 0", allocs)
	}
}
