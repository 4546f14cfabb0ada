package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"es2"
	"es2/experiments"
)

// clusterScale shrinks the rack-scale families with
// experiments.ScaleCluster (flows and windows divided by 8), so one run
// covers enough seeds for steady medians on a small machine.
const clusterScale = 8

// workload is one benchmark input: an experiment family's scenarios
// and the invariants its results must satisfy. README.md records why
// each one is in the benchmark.
type workload struct {
	name      string
	scenarios []scenario
	check     func(o *outcome) error
}

func workloads() []workload {
	rack := experiments.ScaleCluster(experiments.Rack1(), clusterScale)
	day := experiments.ScaleCluster(experiments.Daycycle(), clusterScale)
	for i := range day.Specs {
		s := &day.Specs[i]
		s.Telemetry, s.CritPath, s.PathTrace, s.CPUProfile = true, true, true, true
		s.SLO = experiments.DefaultSLO()
	}
	chaos := experiments.ScaleCluster(experiments.Chaos(), clusterScale)
	for i := range chaos.Specs {
		chaos.Specs[i].Check = true
	}
	return []workload{
		{
			name:      "paper-host",
			scenarios: singles(experiments.TableI().Specs),
			check:     checkHost,
		},
		{
			name:      "rack-closed",
			scenarios: clusters(rack.Specs),
			check:     checkCluster,
		},
		{
			name:      "day-open",
			scenarios: clusters(day.Specs),
			check:     checkDay,
		},
		{
			name:      "rack-chaos",
			scenarios: clusters(chaos.Specs),
			check:     checkChaos,
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// at returns the workload's scenarios driven by seed: one pass.
func (w workload) at(seed uint64) []scenario {
	sc := make([]scenario, len(w.scenarios))
	for i := range sc {
		sc[i] = w.scenarios[i].withSeed(seed)
	}
	return sc
}

// scenario is one simulator run: a single-host or a cluster spec.
type scenario struct {
	name    string
	single  *es2.ScenarioSpec
	cluster *es2.ClusterSpec
}

func singles(specs []es2.ScenarioSpec) []scenario {
	out := make([]scenario, len(specs))
	for i := range specs {
		out[i] = scenario{name: specs[i].Name, single: &specs[i]}
	}
	return out
}

func clusters(specs []es2.ClusterSpec) []scenario {
	out := make([]scenario, len(specs))
	for i := range specs {
		out[i] = scenario{name: specs[i].Name, cluster: &specs[i]}
	}
	return out
}

// withSeed returns a copy of the scenario driven by seed.
func (s scenario) withSeed(seed uint64) scenario {
	if s.single != nil {
		c := *s.single
		c.Seed = seed
		s.single = &c
	} else {
		c := *s.cluster
		c.Seed = seed
		s.cluster = &c
	}
	return s
}

func (s scenario) seed() uint64 {
	if s.single != nil {
		return s.single.Seed
	}
	return s.cluster.Seed
}

// outcome is what one scenario run gives the harness. The simulator's
// own result is reduced to counters right away, so a run does not keep
// every pass's recorders alive.
type outcome struct {
	wall time.Duration // es2.Run / es2.RunCluster, end to end
	loop time.Duration // inside the event loop, by the engine's clock
	eng  *es2.EngineReport

	digest string // SHA-256 of the deterministic result JSON
	sim    simCounters
	err    error // a failed invariant
}

// simCounters are the simulated-world numbers the layer table reports.
type simCounters struct {
	exitsPerSimS float64
	tig          float64
	redirectRate float64
	opsPerSimS   float64
	rpcTimeouts  uint64
	rpcRetries   uint64
	forwarded    uint64
	egressDrops  uint64
	frameBytes   float64
	ports        int
	offered      uint64
	shed         uint64
	sweeps       uint64 // invariant-checker sweeps that passed
}

// sampleN values for the engine's collector. Untraced runs only need
// its clock around the event loop, so sampling is set as sparse as the
// spec allows; traced runs use the package default.
const (
	untracedSampleN = 1 << 20
	tracedSampleN   = 0
)

// run executes the scenario once with the engine clock attached and
// returns the simulator's result for digest. A panic inside the
// simulator is returned as an error.
func (s scenario) run(sampleN int) (res any, o outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", s.name, p)
		}
	}()
	if s.single != nil {
		spec := *s.single
		spec.EngineStats, spec.EngineStatsSampleN = true, sampleN
		t0 := time.Now()
		r, err := es2.Run(spec)
		o.wall = time.Since(t0)
		if err != nil {
			return nil, o, fmt.Errorf("%s: %w", s.name, err)
		}
		res, o.eng, o.sim = r, r.EngineReport, hostCounters(r)
	} else {
		spec := *s.cluster
		spec.EngineStats, spec.EngineStatsSampleN = true, sampleN
		t0 := time.Now()
		r, err := es2.RunCluster(spec)
		o.wall = time.Since(t0)
		if err != nil {
			return nil, o, fmt.Errorf("%s: %w", s.name, err)
		}
		res, o.eng, o.sim = r, r.EngineReport, clusterCounters(r)
		o.err = clusterInvariants(r)
	}
	if o.eng == nil {
		return nil, o, fmt.Errorf("%s: no engine report", s.name)
	}
	o.loop = time.Duration(o.eng.WallNs)
	return res, o, nil
}

// finish hashes the result's deterministic JSON and applies the
// workload's check, unless an invariant already failed.
func (o *outcome) finish(res any, check func(*outcome) error) error {
	js, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	sum := sha256.Sum256(js)
	o.digest = hex.EncodeToString(sum[:])
	if o.err == nil {
		o.err = check(o)
	}
	return nil
}

func hostCounters(r *es2.Result) simCounters {
	c := simCounters{
		exitsPerSimS: r.TotalExitRate,
		tig:          r.TIG,
		redirectRate: r.RedirectRate,
		opsPerSimS:   r.OpsPerSec,
	}
	if c.opsPerSimS == 0 {
		c.opsPerSimS = r.PktRate // stream workloads count packets
	}
	return c
}

func clusterCounters(r *es2.ClusterResult) simCounters {
	c := hostCounters(r.Aggregate)
	if f := r.Fabric; f != nil {
		c.forwarded, c.egressDrops, c.ports = f.Forwarded, f.EgressDrops, f.Ports
		if f.Forwarded > 0 {
			c.frameBytes = float64(f.UplinkBytes) / float64(f.Forwarded)
		}
	}
	if rec := r.Recovery; rec != nil {
		c.rpcTimeouts, c.rpcRetries = rec.Timeouts, rec.Retries
	}
	c.sweeps = r.InvariantChecks
	if l := r.Load; l != nil {
		c.offered, c.shed = l.Offered, l.Shed
	}
	return c
}

// clusterInvariants enforces the conservation laws the cluster result
// reports about itself: open-loop arrivals equal offered load, causal
// stage sums equal end-to-end latency, and under chaos every flow is
// accounted for and every fault recovered.
func clusterInvariants(r *es2.ClusterResult) error {
	if r.Aggregate == nil || len(r.PerHost) != r.Hosts {
		return fmt.Errorf("%s: %d per-host results for %d hosts", r.Name, len(r.PerHost), r.Hosts)
	}
	if l := r.Load; l != nil {
		if l.Arrivals != l.Offered {
			return fmt.Errorf("%s: load arrivals %d != offered %d", r.Name, l.Arrivals, l.Offered)
		}
		if l.Admitted+l.Shed != l.Offered {
			return fmt.Errorf("%s: load admitted %d + shed %d != offered %d", r.Name, l.Admitted, l.Shed, l.Offered)
		}
	}
	if cp := r.CriticalPath; cp != nil {
		if err := critPathSums(cp); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	if rec := r.Recovery; rec != nil {
		if rec.FlowsUnaccounted != 0 {
			return fmt.Errorf("%s: %d flows unaccounted", r.Name, rec.FlowsUnaccounted)
		}
		for _, f := range rec.Faults {
			if f.MTTRMs < 0 || math.IsInf(f.MTTRMs, 0) || math.IsNaN(f.MTTRMs) {
				return fmt.Errorf("%s: %s on %s never recovered", r.Name, f.Kind, f.Target)
			}
		}
	}
	if r.Aggregate.TotalExitRate <= 0 {
		return fmt.Errorf("%s: no VM exits", r.Name)
	}
	return nil
}

// critPathSums checks that the per-stage blame telescopes to the
// measured end-to-end latency, in aggregate and per exemplar.
func critPathSums(cp *es2.CriticalPath) error {
	if cp.Requests == 0 {
		return errors.New("critical path: no requests")
	}
	var sum int64
	for _, s := range cp.Stages {
		sum += s.TotalNs
	}
	if sum != cp.TotalNs {
		return fmt.Errorf("critical path: stages sum to %dns, end to end %dns", sum, cp.TotalNs)
	}
	if cp.MaxSumRelErr > 1e-3 {
		return fmt.Errorf("critical path: stage-sum error %g", cp.MaxSumRelErr)
	}
	for _, ex := range cp.Exemplars {
		var d int64
		for _, m := range ex.Marks {
			d += m.DurNs
		}
		if d != ex.E2ENs {
			return fmt.Errorf("critical path: exemplar marks sum to %dns, end to end %dns", d, ex.E2ENs)
		}
	}
	return nil
}

// checkHost holds for the single-host table1 pair: the VM exits, and
// its guest runs for a share of the time in (0, 1].
func checkHost(o *outcome) error {
	if o.sim.exitsPerSimS <= 0 || o.sim.tig <= 0 || o.sim.tig > 1 {
		return fmt.Errorf("exits/s %g, TIG %g out of range", o.sim.exitsPerSimS, o.sim.tig)
	}
	return nil
}

// checkCluster holds for closed-loop racks: traffic crossed the fabric.
func checkCluster(o *outcome) error {
	if o.sim.forwarded == 0 {
		return errors.New("fabric forwarded nothing")
	}
	return nil
}

// checkDay holds for open-loop runs: load was offered.
func checkDay(o *outcome) error {
	if o.sim.offered == 0 {
		return errors.New("no load offered")
	}
	return checkCluster(o)
}

// checkChaos holds for the chaos rack: the runtime invariant checker
// swept (it panics on a violation, which run reports).
func checkChaos(o *outcome) error {
	if o.sim.sweeps == 0 {
		return errors.New("invariant checker never swept")
	}
	return checkCluster(o)
}
