// Command perfbench is the repository's benchmark: it runs one
// experiment family's scenarios through the public es2 and experiments
// APIs, one scenario at a time, and reports host cost end to end
// (untraced) or per simulator layer (traced). Simulated results are its
// correctness check: every scenario's result JSON is hashed, and the
// hashes must repeat across passes, match between traced and untraced
// runs, and equal the pinned ones at the default seed.
//
// Usage:
//
//	perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	perfbench --pin    # print the default-seed digests for digests.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"es2/experiments"
	"es2/internal/sim"
)

//go:embed digests.json
var pinnedJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-host, rack-closed, day-open or rack-chaos")
	seed := fs.Uint64("seed", experiments.Seed, "seed the run's scenario seeds are drawn from")
	seconds := fs.Int("seconds", 10, "measurement budget in host seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	pin := fs.Bool("pin", false, "print every scenario's digest at the default seed as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One scenario at a time on at most two cores: the closed loop a
	// user of es2bench or es2cluster sees.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *pin {
		return printPins(stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fmt.Fprintf(stderr, "perfbench: digests.json: %v\n", err)
		return 1
	}

	h := &harness{w: w, traced: *trace == 1, digests: map[digestKey]string{}, log: stdout}
	if h.traced {
		h.tr = newTracer(fmt.Sprintf("%s-seed%d", w.name, *seed))
		h.profile = newLayerTable()
	}
	root := h.tr.add(0, "workload "+w.name, time.Now(), time.Now(), map[string]any{"seed": *seed})

	// Warm-up: the experiments' own specs at the default seed. It is
	// not timed, and it checks the pinned digests on every run.
	h.pass(w.scenarios, h.traced, false, root, pinned)

	// Each timed pass runs at the next seed of a stream drawn from
	// --seed, so a run's medians are taken over as many distinct seeds
	// as the budget holds: how much work a scenario does varies with its
	// seed, and a few seeds per run would make that variance the run's.
	seeds := scenarioSeeds(*seed, maxPasses)
	var untraced, traced []passResult
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	for _, s := range seeds {
		p0 := time.Now()
		sc := w.at(s)
		untraced = append(untraced, h.pass(sc, false, true, root, nil))
		if h.traced {
			traced = append(traced, h.pass(sc, true, true, root, nil))
		}
		// Stop where another pass would overshoot the budget by more
		// than half.
		if time.Since(start)+time.Since(p0)/2 > budget {
			break
		}
	}
	// Untimed: the first seed again, whose results must repeat.
	h.pass(w.at(seeds[0]), false, false, root, nil)
	h.tr.setEnd(root, time.Now())

	var metrics map[string]metric
	if h.traced {
		metrics = h.layerMetrics(untraced, traced, root)
		if path, err := h.tr.write(*spansDir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	} else {
		metrics = endToEnd(untraced, stdout)
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(stdout, "%s: %d scenario runs attempted, %d failed (failed_frac %.4f)\n",
		w.name, h.attempted, h.failed, float64(h.failed)/float64(max(h.attempted, 1)))
	line, err := json.Marshal(report{
		Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	var s string
	for i, w := range workloads() {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// maxPasses caps the timed passes of one run, far above what a budget
// of a minute holds.
const maxPasses = 4096

// scenarioSeeds draws a run's scenario seeds from --seed, so the same
// seed always gives the same inputs.
func scenarioSeeds(seed uint64, n int) []uint64 {
	rng := sim.NewRand(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// digestKey identifies one deterministic result: a scenario at a seed.
type digestKey struct {
	scenario string
	seed     uint64
}

// harness runs passes over a workload and keeps the correctness tally.
type harness struct {
	w       workload
	traced  bool
	digests map[digestKey]string
	log     io.Writer

	attempted, failed int

	tr      *tracer     // traced runs only
	profile *layerTable // traced runs only
}

// passResult is one pass over a workload's scenarios at one seed.
type passResult struct {
	ok         bool // every scenario ran and passed its checks
	wall, loop time.Duration
	simSeconds float64

	fired, pushes, pops uint64
	depthWeighted       float64 // mean depth × pushes, summed
	depthMax            int
	mallocs, allocBytes uint64
	gcCycles            uint32
	sim                 []simCounters
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	fmt.Fprintf(h.log, "FAIL "+format+"\n", args...)
}

// pass runs every scenario once. traced attaches the CPU profiler and
// the engine's sampled statistics; collect adds the profile to the
// layer table; pinned, when non-nil, holds the digests the results
// must reproduce.
func (h *harness) pass(scs []scenario, traced, collect bool, parent int, pinned map[string]string) passResult {
	p := passResult{ok: true}
	sampleN := untracedSampleN
	if traced {
		sampleN = tracedSampleN
	}
	// Start every pass from a collected heap, so one pass's garbage is
	// not paid for by the next.
	runtime.GC()
	for _, sc := range scs {
		h.attempted++
		t0 := time.Now()
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				h.fail("%s: cpu profile: %v", sc.name, err)
				p.ok = false
				continue
			}
		}
		res, o, err := sc.run(sampleN)
		if traced {
			pprof.StopCPUProfile()
		}
		if err == nil {
			err = o.finish(res, h.w.check)
		}
		t1 := time.Now()
		if traced && collect {
			samples, perr := decodeCPUProfile(prof.Bytes())
			if perr != nil {
				h.fail("%s: %v", sc.name, perr)
				p.ok = false
			}
			h.profile.add(samples)
		}
		id := h.tr.add(parent, "scenario "+sc.name, t0, t1, map[string]any{"seed": sc.seed(), "traced": traced})
		if err != nil {
			h.fail("%v", err)
			p.ok = false
			continue
		}
		// The public API does not expose the boundary between build and
		// assembly, so both sit in one set-up span ahead of the loop.
		setup := o.wall - o.loop
		h.tr.add(id, "setup (build + assemble)", t0, t0.Add(setup), nil)
		h.tr.add(id, "event loop", t0.Add(setup), t0.Add(o.wall), map[string]any{"events": o.eng.EventsFired})
		h.tr.add(id, "digest", t0.Add(o.wall), t1, map[string]any{"sha256": o.digest})

		if o.err != nil {
			h.fail("%s seed %d: %v", sc.name, sc.seed(), o.err)
			p.ok = false
		}
		key := digestKey{sc.name, sc.seed()}
		if prev, seen := h.digests[key]; seen && prev != o.digest {
			h.fail("%s seed %d: result digest %s differs from an earlier run's %s (traced=%v)",
				sc.name, sc.seed(), o.digest[:12], prev[:12], traced)
			p.ok = false
		}
		h.digests[key] = o.digest
		if pinned != nil && pinned[sc.name] != o.digest {
			h.fail("%s: default-seed digest %s, pinned %q", sc.name, o.digest, pinned[sc.name])
			p.ok = false
		}

		e := o.eng
		p.wall += o.wall
		p.loop += o.loop
		p.simSeconds += e.SimSeconds
		p.fired += e.EventsFired
		p.pushes += e.Heap.Pushes
		p.pops += e.Heap.Pops
		p.depthWeighted += e.Heap.MeanDepth * float64(e.Heap.Pushes)
		p.depthMax = max(p.depthMax, e.Heap.MaxDepth)
		p.mallocs += e.Mallocs
		p.allocBytes += e.AllocBytes
		p.gcCycles += e.NumGC
		p.sim = append(p.sim, o.sim)
	}
	return p
}

// endToEnd reduces untraced passes to the end-to-end metrics: medians
// over passes, plus the process's peak resident memory.
func endToEnd(passes []passResult, log io.Writer) map[string]metric {
	var wall, rate, setup []float64
	for _, p := range passes {
		if !p.ok || p.loop <= 0 {
			continue
		}
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, p.simSeconds/p.loop.Seconds())
		setup = append(setup, (p.wall - p.loop).Seconds())
	}
	fmt.Fprintf(log, "%d passes: wall_s %s; setup_s %s\n", len(wall), spread(wall), spread(setup))
	return map[string]metric{
		"wall_s":           {median(wall), "s"},
		"sim_s_per_wall_s": {median(rate), "s/s"},
		"setup_s":          {median(setup), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// layerMetrics reduces a traced run: engine and runtime counters from
// its untraced passes, callee-attributed self time from its traced
// passes, simulated counters per layer, and the layer probes.
func (h *harness) layerMetrics(untraced, traced []passResult, root int) map[string]metric {
	m := map[string]metric{}
	var (
		n                                           float64
		fired, pushes, pops, mallocs, bytes, depthW float64
		depthMax                                    int
		evRate, gc, wallU, wallT                    []float64
		sc                                          []simCounters
	)
	for _, p := range untraced {
		if !p.ok || p.loop <= 0 {
			continue
		}
		n++
		fired += float64(p.fired)
		pushes += float64(p.pushes)
		pops += float64(p.pops)
		mallocs += float64(p.mallocs)
		bytes += float64(p.allocBytes)
		depthW += p.depthWeighted
		depthMax = max(depthMax, p.depthMax)
		evRate = append(evRate, float64(p.fired)/p.loop.Seconds())
		gc = append(gc, float64(p.gcCycles))
		wallU = append(wallU, p.wall.Seconds())
		sc = append(sc, p.sim...)
	}
	for _, p := range traced {
		if p.ok {
			wallT = append(wallT, p.wall.Seconds())
		}
	}
	n = max(n, 1)
	depthMean := depthW / max(pushes, 1)
	m["sim.events"] = metric{fired / n, "count"}
	m["sim.events_per_wall_s"] = metric{median(evRate), "1/s"}
	m["sim.heap_ops"] = metric{(pushes + pops) / n, "count"}
	m["sim.fired_per_pop"] = metric{fired / max(pops, 1), "ratio"}
	m["sim.depth_mean"] = metric{depthMean, "count"}
	m["sim.depth_max"] = metric{float64(depthMax), "count"}
	m["runtime.allocs_per_event"] = metric{mallocs / max(fired, 1), "count"}
	m["runtime.bytes_per_event"] = metric{bytes / max(fired, 1), "B"}
	m["runtime.gc_cycles"] = metric{median(gc), "count"}
	m["trace.overhead_s"] = metric{median(wallT) - median(wallU), "s"}

	// Callee-attributed self time, per traced pass.
	if err := h.profile.reconcile(); err != nil {
		h.fail("%v", err)
	}
	tp := float64(max(len(wallT), 1))
	for _, l := range layers {
		m["host."+l+".self_s"] = metric{float64(h.profile.nanos[l]) / 1e9 / tp, "s"}
	}
	samples, _ := h.profile.totals()
	m["host.profile_samples"] = metric{float64(samples), "count"}
	fmt.Fprintf(h.log, "%s: callee-attributed CPU profile over %d traced passes, %d samples\n",
		h.w.name, len(wallT), samples)
	h.profile.render(h.log, len(wallT))

	// Simulated counters: rates are means over scenario runs, counts
	// are per pass.
	var c simCounters
	var frame float64
	for _, s := range sc {
		c.exitsPerSimS += s.exitsPerSimS
		c.tig += s.tig
		c.redirectRate += s.redirectRate
		c.opsPerSimS += s.opsPerSimS
		c.rpcTimeouts += s.rpcTimeouts
		c.rpcRetries += s.rpcRetries
		c.forwarded += s.forwarded
		c.egressDrops += s.egressDrops
		c.offered += s.offered
		c.shed += s.shed
		frame += s.frameBytes
		c.ports = max(c.ports, s.ports)
	}
	runs := float64(max(len(sc), 1))
	m["vmm.exits_per_sim_s"] = metric{c.exitsPerSimS / runs, "1/s"}
	m["vmm.tig"] = metric{c.tig / runs, "ratio"}
	m["apic.redirect_rate"] = metric{c.redirectRate / runs, "ratio"}
	m["workloads.ops_per_sim_s"] = metric{c.opsPerSimS / runs, "1/s"}
	m["workloads.rpc_timeouts"] = metric{float64(c.rpcTimeouts) / n, "count"}
	m["workloads.rpc_retries"] = metric{float64(c.rpcRetries) / n, "count"}
	m["fabric.forwarded"] = metric{float64(c.forwarded) / n, "count"}
	m["fabric.egress_drops"] = metric{float64(c.egressDrops) / n, "count"}
	m["loadgen.offered"] = metric{float64(c.offered) / n, "count"}
	m["loadgen.shed"] = metric{float64(c.shed) / n, "count"}

	// Probes, at the shape this run observed.
	probe := func(name string, fn func() float64) {
		t0 := time.Now()
		v := fn()
		h.tr.add(root, "probe "+name, t0, time.Now(), map[string]any{"ns_per_op": v})
		m[name] = metric{v, "ns"}
	}
	depth := max(int(depthMean+0.5), 1)
	var atStep float64
	probe("sim.at_step_ns", func() float64 { atStep = probeAtStep(depth, 200_000); return atStep })
	probe("sim.cancel_ns", func() float64 { return probeCancel(depth, 200_000, atStep) })
	probe("virtio.add_pop_ns", func() float64 { return probeAddPop(20_000) })
	probe("fabric.send_ns", func() float64 {
		if c.ports == 0 {
			return 0
		}
		return probeFabricSend(c.ports, frame/runs, 100_000)
	})
	probe("loadgen.interarrival_ns", func() float64 {
		if c.offered == 0 {
			return 0
		}
		return probeInterarrival(h.w.scenarios[0].cluster.Workload.Load, 200_000)
	})
	return m
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printPins runs every workload's scenarios once at the default seed
// and prints their digests in digests.json's format.
func printPins(stdout, stderr io.Writer) int {
	pins := map[string]string{}
	for _, w := range workloads() {
		for _, sc := range w.scenarios {
			res, o, err := sc.run(untracedSampleN)
			if err == nil {
				err = o.finish(res, w.check)
			}
			if err == nil {
				err = o.err
			}
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			pins[sc.name] = o.digest
		}
	}
	js, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread formats min / median / max for the human report.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("min %.4g / median %.4g / max %.4g", s[0], median(s), s[len(s)-1])
}
