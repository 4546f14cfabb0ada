package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestEveryPackageHasALayer: every package under internal/ and the
// root package map to a named simulator layer, never to other.
func TestEveryPackageHasALayer(t *testing.T) {
	pkgs := map[string]bool{"es2": true, "es2/experiments": true}
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgs["es2/"+filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("found only %d packages; is the test running from perfbench/?", len(pkgs))
	}
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
	}
	for pkg := range pkgs {
		l, ok := packageLayer[pkg]
		if !ok || l == "other" || !named[l] {
			t.Errorf("package %s maps to layer %q (ok=%v)", pkg, l, ok)
		}
	}
	for pkg, l := range packageLayer {
		if !named[l] {
			t.Errorf("packageLayer[%s] = %q is not in layers", pkg, l)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"es2/internal/vhost.(*Device).kick":                "es2/internal/vhost",
		"es2.Run.func2":                                    "es2",
		"container/heap.Push":                              "container/heap",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "internal/runtime/maps",
		"slices.SortFunc[go.shape.*uint8,go.shape.func()]": "slices",
		"sort.insertionSort[...]":                          "sort",
		"main.main":                                        "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeSyntheticProfile: runtime frames are grouped by what
// they do and for whom, the callee pays, and the layer buckets,
// including other, sum to the profile's total.
func TestAttributeSyntheticProfile(t *testing.T) {
	const (
		at   = "es2/internal/sim.(*Engine).At"
		step = "es2/internal/sim.(*Engine).Step"
	)
	cases := []struct {
		stack string // leaf first, ";"-separated
		want  string
	}{
		// The event queue: container/heap and the sim callbacks it
		// drives are heap; the pointer swaps' barriers are wb.
		{"container/heap.down;container/heap.Pop;" + step, "heap"},
		{"es2/internal/sim.eventQueue.Less;container/heap.up;container/heap.Push;" + at, "heap"},
		{"runtime.gcWriteBarrier2;es2/internal/sim.eventQueue.Swap;container/heap.up;container/heap.Push;" + at, "wb"},
		{"runtime.wbBufFlush1;runtime.wbBufFlush;runtime.bulkBarrierPreWrite;runtime.typedslicecopy;es2/internal/virtio.(*Virtqueue).Pop", "wb"},
		// Allocation, and a collector assist it triggers.
		{"runtime.nextFreeFast;runtime.mallocgc;runtime.newobject;" + at + ";es2/internal/sched.(*core).armChunk", "alloc"},
		{"runtime.growslice;es2/internal/metrics.(*Series).Add", "alloc"},
		{"runtime.scanobject;runtime.gcDrainN;runtime.gcAssistAlloc;runtime.mallocgc;runtime.newobject;es2/internal/vhost.(*Device).kick", "gc"},
		// Background collector goroutines never enter the simulator.
		{"runtime.scanobject;runtime.gcDrain;runtime.gcBgMarkWorker", "gc"},
		{"runtime._GC", "gc"},
		// Other runtime work is the caller's.
		{"runtime.memmove;runtime.typedslicecopy;es2/internal/virtio.(*Virtqueue).Pop;es2/internal/vhost.(*Device).handleTX", "vhost"},
		{"internal/runtime/maps.(*Map).getWithKeySmall;runtime.mapaccess1;es2/internal/sched.(*Scheduler).wake", "sched"},
		{"math.Log;es2/internal/loadgen.(*Sampler).Interarrival", "loadgen"},
		{"sort.insertionSort[...];slices.SortFunc[go.shape.int];es2/internal/causal.(*Tracker).Report", "obs"},
		// The callee pays, not the package that scheduled the event.
		{"es2/internal/sched.(*core).chunkDone;" + step + ";es2/internal/sim.(*Engine).Run", "sched"},
		{"es2/internal/guest.(*Kernel).softirq;es2/internal/sched.(*core).chunkDone;" + step, "guest"},
		{"es2.buildCluster;es2.RunCluster;main.main", "runner"},
		{"es2/internal/apic.(*LAPIC).Accept", "vmm"},
		{"es2/internal/fabric.(*Port).Send", "fabric"},
		{"es2/internal/faults.(*Checker).sweep", "faults"},
		// Stacks outside the simulator: the profiler, the harness,
		// the idle scheduler.
		{"runtime.mallocgc;runtime/pprof.(*profileBuilder).build;runtime/pprof.profileWriter", "other"},
		{"encoding/json.(*encodeState).marshal;main.main", "other"},
		{"runtime.futex;runtime.findRunnable;runtime.schedule", "other"},
		{"", "other"},
	}
	tab := newLayerTable()
	var want int64
	for i, c := range cases {
		var stack []string
		if c.stack != "" {
			stack = strings.Split(c.stack, ";")
		}
		if got := attribute(stack); got != c.want {
			t.Errorf("attribute(%s) = %q, want %q", c.stack, got, c.want)
		}
		n := int64(i + 1)
		tab.add([]cpuSample{{stack: stack, count: n, nanos: n * 10_000_000}})
		want += n
	}
	if err := tab.reconcile(); err != nil {
		t.Fatal(err)
	}
	count, nanos := tab.totals()
	if count != want || nanos != want*10_000_000 {
		t.Fatalf("buckets sum to %d samples/%dns, want %d/%dns", count, nanos, want, want*10_000_000)
	}
	var sum int64
	for _, l := range layers {
		sum += tab.count[l]
	}
	if sum != want || tab.count["other"] == 0 {
		t.Fatalf("named layers plus other hold %d of %d samples (other %d)", sum, want, tab.count["other"])
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeCPUProfile decodes a real runtime/pprof CPU profile.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	found := false
	for _, s := range samples {
		count += s.count
		if s.nanos <= 0 || s.count <= 0 {
			t.Fatalf("sample with count %d, nanos %d", s.count, s.nanos)
		}
		for _, f := range s.stack {
			found = found || strings.HasSuffix(f, ".burn")
		}
	}
	if count == 0 || !found {
		t.Fatalf("%d samples, burn frame found %v", count, found)
	}
	tab := newLayerTable()
	tab.add(samples)
	if err := tab.reconcile(); err != nil {
		t.Fatal(err)
	}
	if c, _ := tab.totals(); c != count {
		t.Fatalf("layer table holds %d of %d samples", c, count)
	}
}

func TestScenarioSeedsRepeat(t *testing.T) {
	a, b := scenarioSeeds(7, 4), scenarioSeeds(7, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave %v then %v", a, b)
		}
	}
	if c := scenarioSeeds(8, 4); c[0] == a[0] {
		t.Fatalf("seeds 7 and 8 share their first scenario seed %d", a[0])
	}
}
