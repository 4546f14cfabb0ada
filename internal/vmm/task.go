package vmm

import "es2/internal/sim"

// Prio is the priority of guest work inside one vCPU. It models the
// guest kernel's execution contexts: hardware interrupt handlers
// preempt softirq, softirq preempts process context, and the idle class
// only runs when nothing else is runnable (the paper's lowest-priority
// CPU-burn script lives there).
type Prio int

const (
	// PrioIRQ is hardware-interrupt context.
	PrioIRQ Prio = iota
	// PrioSoftirq is softirq/bottom-half context (NAPI polling).
	PrioSoftirq
	// PrioTask is ordinary process context.
	PrioTask
	// PrioIdle is the idle class (CPU-burn fillers).
	PrioIdle

	numPrios = iota
)

// Task is a unit of guest CPU work executed on a vCPU. Tasks are
// one-shot: long-running guest activities re-enqueue themselves from
// OnComplete. A task preempted by a higher-priority task (or by the
// host scheduler) keeps its remaining time and resumes later.
//
// The vCPU stores queued tasks by value (EnqueueTask copies), so a
// Task built for enqueueing never reaches the heap; only OnComplete
// does, and callers that run the same continuation repeatedly bind it
// once.
type Task struct {
	Name      string
	Prio      Prio
	Remaining sim.Time
	// OnComplete runs when the task's time is fully consumed. It runs
	// in guest context: it may enqueue tasks, send packets, trigger
	// exits, and so on.
	OnComplete func()

	// irq and eoi make this an interrupt-handler task (see
	// startHandler): the IDT handler's effect, run on the vCPU, and
	// the EOI write that follows it.
	irq func(*VCPU)
	eoi bool
}

// NewTask is a convenience constructor.
func NewTask(name string, prio Prio, d sim.Time, fn func()) *Task {
	return &Task{Name: name, Prio: prio, Remaining: d, OnComplete: fn}
}
