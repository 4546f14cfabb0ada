package main

import (
	"fmt"
	"io"
	"strings"
)

// Layer names of the callee-attributed profile, in report order. The
// first eleven follow the simulator's modules; heap, alloc, gc and wb
// split the Go runtime's share by what it was doing; other takes the
// rest (the harness, the profiler itself, idle scheduler frames).
var layers = []string{
	"sim", "heap", "alloc", "gc", "wb",
	"vhost", "sched", "vmm", "guest", "fabric", "loadgen",
	"obs", "faults", "runner", "other",
}

// packageLayer maps each simulator package, by exact import path, to
// the layer that pays for its frames.
var packageLayer = map[string]string{
	"es2":                      "runner",
	"es2/experiments":          "runner",
	"es2/internal/cliflags":    "runner",
	"es2/internal/sim":         "sim",
	"container/heap":           "heap",
	"es2/internal/virtio":      "vhost",
	"es2/internal/vhost":       "vhost",
	"es2/internal/sched":       "sched",
	"es2/internal/vmm":         "vmm",
	"es2/internal/apic":        "vmm",
	"es2/internal/core":        "vmm",
	"es2/internal/guest":       "guest",
	"es2/internal/netsim":      "guest",
	"es2/internal/workloads":   "guest",
	"es2/internal/fabric":      "fabric",
	"es2/internal/loadgen":     "loadgen",
	"es2/internal/telemetry":   "obs",
	"es2/internal/causal":      "obs",
	"es2/internal/trace":       "obs",
	"es2/internal/profile":     "obs",
	"es2/internal/slo":         "obs",
	"es2/internal/metrics":     "obs",
	"es2/internal/enginestats": "obs",
	"es2/internal/stats":       "obs",
	"es2/internal/ops":         "obs",
	"es2/internal/faults":      "faults",
}

// packageOf extracts the import path from a symbol name:
// "es2/internal/vhost.(*Device).kick" → "es2/internal/vhost",
// "es2.Run.func2" → "es2", "slices.Sort[go.shape.int]" → "slices".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// isRuntime reports whether a package is part of the Go runtime proper,
// whose frames are charged by what they do and for whom.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/")
}

// runtimeClass buckets a run of runtime frames: write barriers first
// (their buffer flushes shade objects for the collector), then
// collector work (including allocation-triggered assists), then
// allocation. It returns "" for other runtime work, such as memmove or
// map access, which the caller pays for.
func runtimeClass(frames []string) string {
	for _, f := range frames {
		n := strings.TrimPrefix(f, "runtime.")
		if strings.HasPrefix(n, "gcWriteBarrier") || strings.HasPrefix(n, "wbBuf") ||
			strings.HasPrefix(n, "bulkBarrier") || strings.HasPrefix(n, "typedBitsBulkBarrier") {
			return "wb"
		}
	}
	for _, f := range frames {
		n := strings.TrimPrefix(f, "runtime.")
		for _, p := range gcPrefixes {
			if strings.HasPrefix(n, p) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		n := strings.TrimPrefix(f, "runtime.")
		for _, p := range allocPrefixes {
			if strings.HasPrefix(n, p) {
				return "alloc"
			}
		}
	}
	return ""
}

var gcPrefixes = []string{
	"gc", "_GC", "markroot", "scanobject", "scanblock", "scanstack", "scanframe",
	"greyobject", "shade", "bgsweep", "sweepone", "bgscavenge", "markBits",
	"(*gcWork)", "(*gcControllerState)", "(*sweepLocked)", "(*scavengerState)",
	"(*mspan).sweep", "(*mheap).reclaim",
}

var allocPrefixes = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"convT", "rawstring", "rawbyteslice", "rawruneslice", "nextFreeFast",
	"deductAssistCredit", "profilealloc",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*pageAlloc)", "(*fixalloc)",
}

// attribute charges one sample stack (leaf first) to a layer. The
// callee pays: the leaf's package decides, except that runtime frames
// at the leaf are split by what they do (wb, gc, alloc) or else charged
// to their caller, and the event queue's container/heap callbacks in
// internal/sim count as heap. Stacks that never enter the simulator go
// to other, unless they are pure runtime collector work.
func attribute(stack []string) string {
	i := 0
	for i < len(stack) && isRuntime(packageOf(stack[i])) {
		i++
	}
	owner := ""
	for j := i; j < len(stack); j++ {
		if l, ok := packageLayer[packageOf(stack[j])]; ok {
			owner = l
			if l == "sim" && j+1 < len(stack) && packageOf(stack[j+1]) == "container/heap" {
				owner = "heap"
			}
			break
		}
	}
	if owner == "" && i < len(stack) {
		return "other"
	}
	if c := runtimeClass(stack[:i]); c != "" {
		return c
	}
	if owner == "" {
		return "other"
	}
	return owner
}

// layerTable accumulates callee-attributed profile samples per layer,
// beside the profile's own totals.
type layerTable struct {
	count map[string]int64
	nanos map[string]int64

	samples, sampleNanos int64 // as the decoded profile counts them
}

func newLayerTable() *layerTable {
	return &layerTable{count: map[string]int64{}, nanos: map[string]int64{}}
}

func (t *layerTable) add(samples []cpuSample) {
	for _, s := range samples {
		l := attribute(s.stack)
		t.count[l] += s.count
		t.nanos[l] += s.nanos
		t.samples += s.count
		t.sampleNanos += s.nanos
	}
}

// totals returns the sample count and CPU nanoseconds summed over the
// named layers, other included.
func (t *layerTable) totals() (count, nanos int64) {
	for _, l := range layers {
		count += t.count[l]
		nanos += t.nanos[l]
	}
	return count, nanos
}

// reconcile checks that the named layers together hold exactly the
// profile's samples.
func (t *layerTable) reconcile() error {
	if c, n := t.totals(); c != t.samples || n != t.sampleNanos {
		return fmt.Errorf("layer table: layers hold %d samples/%dns of the profile's %d/%dns",
			c, n, t.samples, t.sampleNanos)
	}
	return nil
}

// render prints the table with per-pass self seconds and shares.
func (t *layerTable) render(w io.Writer, passes int) {
	count, nanos := t.totals()
	fmt.Fprintf(w, "  %-8s %9s %12s %7s\n", "layer", "samples", "self_s/pass", "share")
	for _, l := range layers {
		share := 0.0
		if nanos > 0 {
			share = float64(t.nanos[l]) / float64(nanos)
		}
		fmt.Fprintf(w, "  %-8s %9d %12.4f %6.1f%%\n", l, t.count[l],
			float64(t.nanos[l])/1e9/float64(max(passes, 1)), 100*share)
	}
	fmt.Fprintf(w, "  %-8s %9d %12.4f\n", "total", count, float64(nanos)/1e9/float64(max(passes, 1)))
}
