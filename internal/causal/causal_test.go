package causal

import (
	"testing"

	"es2/internal/sim"
)

// span is one stamped segment of a hand-built chain.
type span struct {
	stage Stage
	host  uint8
	d     sim.Time
}

// complete opens a chain at start, stamps each span in order on its
// host and completes it at the end of the last one.
func complete(tr *Tracker, flow int, seq int64, start sim.Time, spans []span) {
	t := start
	c := tr.Probe(0).Start(flow, seq, start)
	for i, s := range spans {
		t += s.d
		if i == len(spans)-1 {
			tr.Probe(s.host).Complete(c, s.stage, t)
			return
		}
		tr.Probe(s.host).Mark(c, s.stage, t)
	}
}

// TestStageSumsTelescopeToEndToEnd checks the reconciliation
// invariant: every chain's stage durations sum exactly to its
// end-to-end latency, so the aggregate stage totals sum to the report
// total and every exemplar's mark durations sum to its latency.
func TestStageSumsTelescopeToEndToEnd(t *testing.T) {
	tr := NewTracker(3)
	tr.LabelHosts = true
	rng := sim.NewRand(7)
	var wantTotal sim.Time
	for i := 0; i < 50; i++ {
		path := []Stage{StageNotifyExit, StageBackendTX, StageWire, StageBackendRX,
			StageSignal, StageWakeup, StageIRQPosted, StageRingWait, StageGuestRX}
		spans := []span{{StageGuestTX, 0, sim.Time(1 + rng.Intn(5000))}}
		for j, st := range path {
			spans = append(spans, span{st, uint8(j % 2), sim.Time(rng.Intn(20000))})
		}
		var e2e sim.Time
		for _, s := range spans {
			e2e += s.d
		}
		wantTotal += e2e
		complete(tr, i, int64(i), sim.Time(i)*sim.Millisecond, spans)
	}
	r := tr.Report()
	if r.Requests != 50 || tr.Completed() != 50 || tr.Started() != 50 {
		t.Fatalf("requests = %d (completed %d, started %d), want 50", r.Requests, tr.Completed(), tr.Started())
	}
	if r.TotalNs != int64(wantTotal) {
		t.Fatalf("TotalNs = %d, want %d", r.TotalNs, wantTotal)
	}
	if r.MaxSumRelErr != 0 {
		t.Fatalf("MaxSumRelErr = %g, want 0", r.MaxSumRelErr)
	}
	var stageSum, hostSum int64
	var share float64
	for _, b := range r.Stages {
		stageSum += b.TotalNs
		share += b.Share
	}
	for _, b := range r.HostStages {
		hostSum += b.TotalNs
	}
	if stageSum != r.TotalNs || hostSum != r.TotalNs {
		t.Fatalf("stage totals sum to %d, host totals to %d; want %d", stageSum, hostSum, r.TotalNs)
	}
	if share < 1-1e-9 || share > 1+1e-9 {
		t.Fatalf("shares sum to %v, want 1", share)
	}
	if len(r.Exemplars) != 3 {
		t.Fatalf("%d exemplars, want 3", len(r.Exemplars))
	}
	for i, ex := range r.Exemplars {
		var sum int64
		for _, m := range ex.Marks {
			sum += m.DurNs
		}
		if sum != ex.E2ENs {
			t.Fatalf("exemplar %d: marks sum to %d, want %d", i, sum, ex.E2ENs)
		}
		if i > 0 && ex.E2ENs > r.Exemplars[i-1].E2ENs {
			t.Fatalf("exemplars not slowest-first: %d after %d", ex.E2ENs, r.Exemplars[i-1].E2ENs)
		}
	}
	if r.MaxNs != r.Exemplars[0].E2ENs {
		t.Fatalf("MaxNs = %d, slowest exemplar %d", r.MaxNs, r.Exemplars[0].E2ENs)
	}
}

// TestMarksClampMonotonic checks that a mark stamped earlier than the
// chain's last mark is clamped to it (a zero-length segment, never a
// negative one), that consecutive marks of one stage on one host merge,
// and that a completed chain ignores further marks — what duplicate
// deliveries sharing a chain rely on.
func TestMarksClampMonotonic(t *testing.T) {
	tr := NewTracker(1)
	p := tr.Probe(0)
	c := p.Start(1, 1, 100)
	p.Mark(c, StageBackendTX, 400)
	p.Mark(c, StageWire, 250) // out of order: clamps to 400
	if c.LastT() != 400 {
		t.Fatalf("LastT = %v after an out-of-order mark, want 400", c.LastT())
	}
	p.Mark(c, StageBackendRX, 600)
	p.Mark(c, StageBackendRX, 700) // same stage and host: extends the segment
	p.Complete(c, StageGuestRX, 1000)
	p.Mark(c, StageSignal, 2000) // after completion: ignored
	c.AddHop()

	want := []ExemplarMark{
		{Stage: "backend-tx", AtNs: 400, DurNs: 300},
		{Stage: "wire", AtNs: 400, DurNs: 0},
		{Stage: "backend-rx", AtNs: 700, DurNs: 300},
		{Stage: "guest-rx", AtNs: 1000, DurNs: 300},
	}
	ex := tr.Report().Exemplars[0]
	if ex.E2ENs != 900 || ex.FabricHops != 0 {
		t.Fatalf("exemplar e2e %d hops %d, want 900 and 0", ex.E2ENs, ex.FabricHops)
	}
	if len(ex.Marks) != len(want) {
		t.Fatalf("marks = %+v, want %+v", ex.Marks, want)
	}
	for i := range want {
		if ex.Marks[i] != want[i] {
			t.Fatalf("mark %d = %+v, want %+v", i, ex.Marks[i], want[i])
		}
	}
	if r := tr.Report(); r.MaxSumRelErr != 0 {
		t.Fatalf("MaxSumRelErr = %g with a clamped mark, want 0", r.MaxSumRelErr)
	}

	// Nil probes and chains are no-ops.
	var np *Probe
	np.Mark(c, StageWire, 1)
	if np.Start(1, 1, 0) != nil {
		t.Fatal("nil probe opened a chain")
	}
	p.Mark(nil, StageWire, 1)
	p.Complete(nil, StageGuestRX, 1)
}

// TestWhatIfOnHandBuiltRecords checks the what-if estimator against
// percentiles computed by hand: four requests whose wire share is
// known, replayed with the wire stage 50% faster.
func TestWhatIfOnHandBuiltRecords(t *testing.T) {
	tr := NewTracker(0)
	// (guest-tx, wire, guest-rx) per request; e2e = 100, 200, 300, 1000.
	for i, d := range [][3]sim.Time{{20, 60, 20}, {50, 100, 50}, {100, 100, 100}, {100, 800, 100}} {
		complete(tr, i, 1, 0, []span{{StageGuestTX, 0, d[0]}, {StageWire, 0, d[1]}, {StageGuestRX, 0, d[2]}})
	}
	r := tr.Report()
	// Nearest rank over 4 sorted values: p50 = index round(1.5) = 2,
	// p99 = index round(2.97) = 3.
	if r.P50Ns != 300 || r.P99Ns != 1000 || r.MeanNs != 400 {
		t.Fatalf("measured p50/p99/mean = %d/%d/%d, want 300/1000/400", r.P50Ns, r.P99Ns, r.MeanNs)
	}
	// Halving the wire: e2e 70, 150, 250, 600, mean 1070/4 = 267.
	w := tr.WhatIf(StageWire, 0.5)
	if w.P50Ns != 250 || w.P99Ns != 600 {
		t.Fatalf("what-if p50/p99 = %d/%d, want 250/600", w.P50Ns, w.P99Ns)
	}
	if w.P50DeltaNs != -50 || w.P99DeltaNs != -400 || w.MeanDeltaNs != -133 {
		t.Fatalf("what-if deltas p50/p99/mean = %d/%d/%d, want -50/-400/-133",
			w.P50DeltaNs, w.P99DeltaNs, w.MeanDeltaNs)
	}
	// A stage no request traversed predicts no change.
	if w := tr.WhatIf(StageSignal, 0.5); w.P50DeltaNs != 0 || w.P99DeltaNs != 0 || w.MeanDeltaNs != 0 {
		t.Fatalf("untraversed stage what-if = %+v, want zero deltas", w)
	}
	// The report's grid covers exactly the traversed stages.
	if len(r.WhatIf) != 3 || r.WhatIf[1] != tr.WhatIf(StageWire, DefaultWhatIfSpeedup) {
		t.Fatalf("report what-if grid = %+v", r.WhatIf)
	}
}
