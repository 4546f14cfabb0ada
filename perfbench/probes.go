package main

import (
	"sort"
	"time"

	"es2"
	"es2/internal/fabric"
	"es2/internal/loadgen"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/virtio"
)

// Layer probes time one layer's exported operations directly, at the
// shape the workload's own run showed. Each probe repeats its loop and
// reports the median nanoseconds per operation.

const probeReps = 5

// medianNs runs fn (which performs ops operations) probeReps times and
// returns the median nanoseconds per operation.
func medianNs(ops int, fn func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// liveQueue fills an engine with n self-rescheduling events whose gaps
// are exponential with mean gap, so the queue depth stays at n.
func liveQueue(n int, gap sim.Time) *sim.Engine {
	eng := sim.NewEngine(1)
	rng := eng.Rand()
	var fire func()
	fire = func() { eng.After(rng.ExpDuration(gap), fire) }
	for i := 0; i < n; i++ {
		eng.At(rng.Duration(gap), fire)
	}
	return eng
}

// probeAtStep times Engine.Step plus the At its event makes, at the
// workload's mean queue depth.
func probeAtStep(depth, ops int) float64 {
	eng := liveQueue(depth, sim.Time(depth)*sim.Microsecond)
	return medianNs(ops, func() {
		for i := 0; i < ops; i++ {
			eng.Step()
		}
	})
}

// probeCancel times a timer that is armed and cancelled before it
// fires: At + Cancel + the dead pop, net of the live At+Step beside it.
// Half the queue is live events and, in steady state, half is
// cancelled timers, so the total depth matches the workload's mean.
func probeCancel(depth, ops int, atStepNs float64) float64 {
	gap := sim.Time(depth) * sim.Microsecond
	eng := liveQueue(max(depth/2, 1), gap)
	rng := sim.NewRand(2)
	noop := func() {}
	ns := medianNs(ops, func() {
		for i := 0; i < ops; i++ {
			eng.After(rng.ExpDuration(gap), noop).Cancel()
			eng.Step()
		}
	})
	return max(ns-atStepNs, 0)
}

// virtioRing is the guest's default virtqueue size.
const virtioRing = 256

// probeAddPop times one descriptor's round trip through a virtqueue
// kept as the guest keeps its receive ring: full but for the one
// buffer in flight, so every Pop shifts a full avail ring.
func probeAddPop(ops int) float64 {
	q := virtio.New("probe", virtioRing)
	for q.Add(virtio.Desc{Len: 1500}) {
	}
	return medianNs(ops, func() {
		for i := 0; i < ops; i++ {
			d, _ := q.Pop()
			q.PushUsed(d)
			for _, u := range q.CollectUsed(0) {
				q.Add(u)
			}
		}
	})
}

// probeFabricSend times Port.Send plus the delivery events it
// schedules, on a switch with the workload's port count and mean frame
// size, one frame in flight at a time.
func probeFabricSend(ports int, frameBytes float64, ops int) float64 {
	eng := sim.NewEngine(1)
	sw := fabric.New(eng, fabric.DefaultParams())
	sink := netsim.EndpointFunc(func(*netsim.Packet) {})
	for i := 0; i < ports; i++ {
		sw.AddPort("p", sink)
	}
	sw.SetRouter(func(src *fabric.Port, _ *netsim.Packet) (int, bool) {
		return (src.Index() + ports/2) % ports, true
	})
	pkt := &netsim.Packet{Bytes: int(frameBytes)}
	return medianNs(ops, func() {
		for i := 0; i < ops; i++ {
			sw.Port(i % ports).Send(pkt)
			eng.RunAll()
		}
	})
}

// probeInterarrival times one interarrival draw, averaged over the
// workload's load classes weighted by their stream counts.
func probeInterarrival(spec es2.LoadSpec, ops int) float64 {
	spec = spec.WithDefaults()
	var ns, streams float64
	for _, c := range spec.Classes {
		proc, _ := loadgen.ParseProcess(c.Process)
		s := loadgen.NewSampler(proc, c.Shape, sim.NewRand(3))
		mean := sim.Time(float64(sim.Second) / c.RatePerSec)
		ns += float64(c.Streams) * medianNs(ops, func() {
			for i := 0; i < ops; i++ {
				s.Interarrival(mean)
			}
		})
		streams += float64(c.Streams)
	}
	if streams == 0 {
		return 0
	}
	return ns / streams
}
