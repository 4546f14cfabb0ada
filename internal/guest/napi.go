package guest

import (
	"es2/internal/apic"
	"es2/internal/causal"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/trace"
	"es2/internal/virtio"
	"es2/internal/vmm"
)

// NAPI is the guest's interrupt-mitigation receive path, modeled after
// Linux NAPI: the RX interrupt handler masks further interrupts and
// schedules a softirq poller; the poller consumes up to weight packets
// per round and re-enables interrupts only when the ring drains.
//
// This is the guest-side analogue of the hybrid scheme ES2 applies on
// the host side — the paper explicitly takes NAPI as its inspiration.
type NAPI struct {
	pair   *QueuePair
	weight int

	scheduled bool
	vcpu      *vmm.VCPU // vCPU the current poll cycle runs on
	burst     int       // consecutive poll rounds in the current cycle

	// batch holds the packets of the poll round in flight, and flows
	// the batch-aware handlers among them; both are reused across
	// rounds (a cycle has at most one round in flight). pollFn and
	// deliverFn are the round's two task continuations, bound once.
	batch     []*netsim.Packet
	flows     []BatchHandler
	pollFn    func()
	deliverFn func()

	// Rounds counts poll rounds; Polled counts packets processed.
	Rounds uint64
	Polled uint64
	// Deferred counts poll rounds demoted to process-context priority
	// (the ksoftirqd path).
	Deferred uint64
}

// softirqRestartLimit bounds how many consecutive poll rounds run at
// softirq priority before the cycle is demoted to process-context
// priority, mirroring Linux's MAX_SOFTIRQ_RESTART handoff to ksoftirqd.
// Without it, a vCPU whose offered receive load exceeds its capacity
// strict-priority-starves process context forever — receive livelock:
// the application tasks that would consume the data (and quench the
// senders' retries) never run.
const softirqRestartLimit = 10

func newNAPI(p *QueuePair, weight int) *NAPI {
	n := &NAPI{pair: p, weight: weight}
	n.pollFn = func() { n.poll(n.vcpu) }
	n.deliverFn = n.deliver
	return n
}

// schedule requests a poll cycle on vCPU v (idempotent while already
// scheduled, as in napi_schedule).
func (n *NAPI) schedule(v *vmm.VCPU) {
	if n.scheduled {
		return
	}
	n.scheduled = true
	n.vcpu = v
	n.enqueuePoll()
}

// enqueuePoll queues one poll round on the chosen vCPU: at softirq
// priority while the cycle is young, at process-context priority (the
// ksoftirqd handoff) once it has monopolized the vCPU for
// softirqRestartLimit rounds — queued FIFO behind any starving tasks.
func (n *NAPI) enqueuePoll() {
	n.vcpu.EnqueueTask(vmm.NewTask("napi", n.prio(), n.pair.Dev.Kern.Costs.NAPIPoll, n.pollFn))
}

// prio returns the priority the current poll round runs at.
func (n *NAPI) prio() vmm.Prio {
	if n.burst >= softirqRestartLimit {
		return vmm.PrioTask
	}
	return vmm.PrioSoftirq
}

// poll runs at the end of the fixed poll overhead: collect a batch,
// charge its processing cost as one softirq task, then dispatch.
func (n *NAPI) poll(v *vmm.VCPU) {
	n.Rounds++
	n.burst++
	if n.burst > softirqRestartLimit {
		n.Deferred++
	}
	batch := n.pair.RX.CollectUsed(n.weight)
	if len(batch) == 0 {
		n.finish()
		return
	}
	// Repost receive buffers for the consumed descriptors, kicking the
	// back-end only if it asked for refill notifications (it does so
	// exclusively when starved for buffers, so this almost never traps).
	for range batch {
		n.pair.RX.Add(virtio.Desc{})
	}
	if n.pair.Dev.DoorbellNoExit || n.pair.RX.KickSuppressed() {
		n.pair.RX.Kick()
	} else {
		v.BeginExit(vmm.ExitIOInstruction, n.pair.kickRX)
	}
	var cost sim.Time
	path := n.pair.Dev.Kern.VM.K.Path
	ca := n.pair.Dev.Kern.VM.K.Causal
	pkts := n.batch[:0]
	for _, d := range batch {
		p, ok := d.Payload.(*netsim.Packet)
		if !ok {
			continue
		}
		if path != nil {
			// Ring-wait closes: the used buffer has been collected by
			// the poller; the deliver span opens on the packet.
			now := v.VM.K.Eng.Now()
			path.Observe(trace.StageRingWait, trace.MechNone, now-d.SpanT)
			p.SpanT = now
		}
		if ca != nil && p.Chain != nil {
			now := v.VM.K.Eng.Now()
			// A chain whose last mark predates the captured interrupt
			// episode was waiting in the used ring when that interrupt
			// fired, so the episode's signal → wakeup → delivery spans
			// belong on it. Chains published after the injection were
			// merely coalesced into the same poll and get only ring-wait.
			if ep := n.pair.ep; ep.valid && p.Chain.LastT() <= ep.inject {
				ca.Mark(p.Chain, causal.StageSignal, ep.inject)
				ca.Mark(p.Chain, causal.StageWakeup, ep.schedIn)
				st := causal.StageIRQEmulated
				if ep.mech == apic.StampPosted {
					st = causal.StageIRQPosted
				}
				ca.Mark(p.Chain, st, ep.entry)
			}
			ca.Mark(p.Chain, causal.StageRingWait, now)
		}
		pkts = append(pkts, p)
		cost += n.pair.Dev.Kern.rxCost(p)
	}
	n.batch = pkts
	n.Polled += uint64(len(pkts))
	name := "napi-rx"
	if v.VM.K.Prof != nil {
		// Label the batch by protocol for CPU attribution. Task names
		// never influence behaviour, so this cannot perturb the run.
		name = protoLabel(pkts)
	}
	v.EnqueueTask(vmm.NewTask(name, n.prio(), cost, n.deliverFn))
}

// deliver ends a poll round: the batch's processing time has been
// charged, so hand each packet to its flow, close the batch on every
// batch-aware flow, then keep polling or finish the cycle.
func (n *NAPI) deliver() {
	v := n.vcpu
	pkts := n.batch
	kern := n.pair.Dev.Kern
	if path := kern.VM.K.Path; path != nil {
		now := v.VM.K.Eng.Now()
		for _, p := range pkts {
			path.Observe(trace.StageDeliver, trace.MechNone, now-p.SpanT)
		}
	}
	if ca := kern.VM.K.Causal; ca != nil {
		// Guest receive stack: poll collect → protocol dispatch.
		now := v.VM.K.Eng.Now()
		for _, p := range pkts {
			ca.Mark(p.Chain, causal.StageGuestRX, now)
		}
	}
	flows := n.flows[:0]
	for _, p := range pkts {
		if bh, ok := kern.lookup(p).(BatchHandler); ok {
			dup := false
			for _, b := range flows {
				if b == bh {
					dup = true
					break
				}
			}
			if !dup {
				flows = append(flows, bh)
			}
		}
		kern.dispatch(p, v)
	}
	for _, bh := range flows {
		bh.BatchEnd(v)
	}
	clear(pkts)
	clear(flows)
	n.batch, n.flows = pkts[:0], flows[:0]
	if n.pair.RX.UsedLen() > 0 {
		// Budget exhausted with work remaining: stay in polling.
		n.enqueuePoll()
		return
	}
	n.finish()
}

// protoLabel names a poll batch's task by the protocol of its packets
// ("napi-rx:tcp", ":udp", ":icmp", ":app", ":other" or ":mixed"),
// mirroring how a real profile splits net_rx_action time between
// tcp_v4_rcv, udp_rcv, and the socket layer.
func protoLabel(pkts []*netsim.Packet) string {
	label := ""
	for _, p := range pkts {
		var l string
		switch p.Kind {
		case KindTCPData, KindTCPAck, KindSYN, KindSYNACK:
			l = "napi-rx:tcp"
		case KindUDP:
			l = "napi-rx:udp"
		case KindEcho, KindEchoReply:
			l = "napi-rx:icmp"
		case KindRequest, KindResponse:
			l = "napi-rx:app"
		default:
			l = "napi-rx:other"
		}
		if label == "" {
			label = l
		} else if label != l {
			return "napi-rx:mixed"
		}
	}
	if label == "" {
		return "napi-rx:other"
	}
	return label
}

// finish re-enables RX interrupts with the standard NAPI race check:
// packets that slipped in between the last poll and the unmask re-enter
// polling immediately.
func (n *NAPI) finish() {
	n.pair.RX.SetNoInterrupt(false)
	if n.pair.RX.UsedLen() > 0 {
		n.pair.RX.SetNoInterrupt(true)
		n.enqueuePoll()
		return
	}
	n.scheduled = false
	n.vcpu = nil
	n.burst = 0
}

// Scheduled reports whether a poll cycle is in flight.
func (n *NAPI) Scheduled() bool { return n.scheduled }
