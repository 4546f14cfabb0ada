package es2

// Engine self-observability: the wall-clock performance collector must
// never perturb the simulation (byte-identical Result JSON with stats
// on or off, including faulted and chaotic runs), must produce a sane
// EngineReport, and must stay cheap.

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"
)

// marshalResult renders the deterministic JSON surface of a result.
func marshalResult(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEngineStatsNonPerturbing(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: Memcached})
	spec.Faults = FaultSpec{LostKickProb: 0.05, PacketLossProb: 0.01}

	off := mustRun(t, spec)
	on := spec
	on.EngineStats = true
	onRes := mustRun(t, on)

	if onRes.EngineReport == nil {
		t.Fatalf("EngineStats run has no EngineReport")
	}
	if off.EngineReport != nil {
		t.Fatalf("stats-off run has an EngineReport")
	}
	// Clearing the report must make the structs identical; the JSON
	// surface must be byte-identical even without clearing, because the
	// report is excluded from it.
	if !bytes.Equal(marshalResult(t, off), marshalResult(t, onRes)) {
		t.Fatalf("Result JSON differs with engine stats enabled")
	}
}

func TestEngineStatsClusterNonPerturbing(t *testing.T) {
	spec := chaosClusterSpec()
	spec.Faults = FaultSpec{LostKickProb: 0.02}

	off, err := RunCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	on := spec
	on.EngineStats = true
	onRes, err := RunCluster(on)
	if err != nil {
		t.Fatal(err)
	}
	if onRes.EngineReport == nil {
		t.Fatalf("EngineStats cluster run has no EngineReport")
	}
	if !bytes.Equal(marshalResult(t, off), marshalResult(t, onRes)) {
		t.Fatalf("ClusterResult JSON differs with engine stats enabled")
	}
}

func TestEngineReportContents(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	spec.EngineStats = true
	r := mustRun(t, spec)
	er := r.EngineReport
	if er == nil {
		t.Fatalf("no EngineReport")
	}
	if er.WallNs <= 0 || er.EventsFired == 0 || er.EventsPerSec <= 0 {
		t.Fatalf("rates not populated: wall=%d fired=%d eps=%g", er.WallNs, er.EventsFired, er.EventsPerSec)
	}
	wantSim := (spec.Warmup + spec.Duration).Seconds()
	if er.SimSeconds != wantSim {
		t.Fatalf("SimSeconds = %g, want %g", er.SimSeconds, wantSim)
	}
	if er.SampleN != DefaultEngineStatsSampleN {
		t.Fatalf("SampleN = %d, want default %d", er.SampleN, DefaultEngineStatsSampleN)
	}
	if er.Heap.Pushes == 0 || er.Heap.Pops == 0 || er.Heap.MaxDepth <= 0 || er.Heap.MeanDepth <= 0 {
		t.Fatalf("heap stats not populated: %+v", er.Heap)
	}
	if er.Heap.Pops > er.Heap.Pushes {
		t.Fatalf("more pops than pushes: %+v", er.Heap)
	}
	if er.Ticks == 0 || len(er.EventsPerTick) == 0 {
		t.Fatalf("tick distribution empty: ticks=%d buckets=%d", er.Ticks, len(er.EventsPerTick))
	}
	var bucketTicks uint64
	for _, b := range er.EventsPerTick {
		bucketTicks += b.Ticks
	}
	if bucketTicks != er.Ticks {
		t.Fatalf("events-per-tick buckets sum to %d, want %d", bucketTicks, er.Ticks)
	}
	if er.SampledEvents == 0 || len(er.Subsystems) == 0 {
		t.Fatalf("no sampled subsystem attribution: sampled=%d rows=%d", er.SampledEvents, len(er.Subsystems))
	}
	for _, row := range er.Subsystems {
		if row.Name == "" || row.Samples == 0 {
			t.Fatalf("degenerate subsystem row: %+v", row)
		}
	}
	if er.AllocBytes == 0 || er.Mallocs == 0 {
		t.Fatalf("memstats deltas not populated: %+v", er)
	}
	if er.Render() == "" {
		t.Fatalf("empty Render")
	}
}

// TestEngineQueueHoldsLiveEventsOnly runs a short table1 Baseline (one
// UP VM sending TCP). Its scheduler arms a timeslice timer of several
// milliseconds on every dispatch and cancels it microseconds later, so
// a queue that kept cancelled timers until their time came would grow
// to over a thousand entries here; cancelled events must leave at
// Cancel, which keeps the queue at the few live events.
func TestEngineQueueHoldsLiveEventsOnly(t *testing.T) {
	spec := short(Baseline(), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	spec.VMs, spec.VCPUs, spec.VMCores, spec.VhostCores = 1, 1, 1, 1
	spec.Warmup, spec.Duration = 50*time.Millisecond, 100*time.Millisecond
	spec.EngineStats = true
	hs := mustRun(t, spec).EngineReport.Heap
	if hs.Pushes != hs.Pops+uint64(hs.Pending) {
		t.Fatalf("pushes %d != pops %d + pending %d", hs.Pushes, hs.Pops, hs.Pending)
	}
	// 10 live events at most were measured here; a lazy queue reaches
	// about 1,700.
	const maxDepth = 20
	if hs.MaxDepth > maxDepth || hs.MeanDepth > maxDepth {
		t.Fatalf("queue depth max %d / mean %.1f, want at most %d: %+v", hs.MaxDepth, hs.MeanDepth, maxDepth, hs)
	}
}

// TestEngineStatsOverhead checks that instrumentation at the default
// sampling interval stays cheap. Stats-off and stats-on runs are
// interleaved in pairs, alternating which goes first, and the test
// judges the median of the per-pair on/off ratios, so host speed drift
// and one-off stalls cancel instead of deciding the result. Many short
// pairs beat a few long ones: each pair's two runs are close enough in
// time to see the same host speed. The measured overhead is recorded in
// EXPERIMENTS.md; the 15% bound leaves room for noise on shared CI
// runners.
func TestEngineStatsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short")
	}
	spec := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	spec.Warmup, spec.Duration = 20*time.Millisecond, 80*time.Millisecond // ~50ms wall

	run := func(stats bool) time.Duration {
		s := spec
		s.EngineStats = stats
		t0 := time.Now()
		mustRun(t, s)
		return time.Since(t0)
	}
	run(false) // warm caches before timing
	const pairs = 61
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off, on = run(false), run(true)
		} else {
			on, off = run(true), run(false)
		}
		ratios[i] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	overhead := ratios[pairs/2] - 1
	t.Logf("engine stats overhead: median on/off %+.2f%% over %d pairs (quartiles %.3f, %.3f)",
		100*overhead, pairs, ratios[pairs/4], ratios[3*pairs/4])
	if overhead > 0.15 {
		t.Fatalf("instrumentation overhead %.1f%% exceeds the 15%% test bound", 100*overhead)
	}
}
