package cloudsim

import (
	"fmt"
	"math"

	"repro/internal/features"
	"repro/internal/simclock"
	"repro/internal/tracing"
)

// VMState is the lifecycle state of a virtual machine, mirroring the states
// managed by the PCAM Virtual Machine Controller.
type VMState int

const (
	// StateStandby marks a healthy VM that is provisioned but not receiving
	// client requests.  PCAM activates standby VMs to take over from
	// about-to-fail active ones.
	StateStandby VMState = iota
	// StateActive marks a VM currently serving client requests.
	StateActive
	// StateRejuvenating marks a VM undergoing software rejuvenation (restart
	// of the server replica); it serves no requests until it returns to
	// standby.
	StateRejuvenating
	// StateFailed marks a VM that reached its failure point before being
	// rejuvenated (a crash or a sustained SLA violation).
	StateFailed
)

// String returns the state name.
func (s VMState) String() string {
	switch s {
	case StateStandby:
		return "STANDBY"
	case StateActive:
		return "ACTIVE"
	case StateRejuvenating:
		return "REJUVENATING"
	case StateFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VMConfig bundles the knobs of a VM.  The VMs of a region share one.
type VMConfig struct {
	// Type is the instance type the VM runs on.
	Type InstanceType
	// Anomalies controls anomaly injection while serving requests.
	Anomalies AnomalyProfile
	// Failure defines the failure point.
	Failure FailurePoint
	// Rejuvenation defines rejuvenation and activation latencies.
	Rejuvenation RejuvenationModel

	// leakPow and threadPow are the simclock.BinomialPow tables of the two
	// anomaly probabilities, which a batch's anomaly draws read instead of
	// computing q^batch (nil until Region.PrepareBatches builds them).
	leakPow, threadPow []float64
}

// VM is one simulated virtual machine hosting a server replica.  It is driven
// entirely by simclock events and is not safe for concurrent use (the
// simulation is single-threaded by design).
type VM struct {
	id  string    // unique identifier (e.g. "region1-vm03")
	cfg *VMConfig // shared by every VM of the region, never written
	// rng is the VM's private stream, held by value: every service, anomaly
	// and noise draw reads and writes the VM's own memory.
	rng simclock.RNG

	// shardIndex is the region shard this VM is owned by (0 in an unsharded
	// region); assigned at provisioning time, VMs never migrate.
	shardIndex int
	// ix and slot locate the VM in its shard's dispatch index (ix is nil for
	// a VM built outside a region).  Every write to state goes through
	// setState and every queue-length change through syncLoad, which keeps
	// the index current.
	ix   *dispatchIndex
	slot int32

	state    VMState
	bootedAt simclock.Time // time the VM last finished rejuvenation (uptime epoch)

	// Anomaly accumulation.
	leakedMB      float64
	zombieThreads int

	// Service model.  queue[qhead:] waits in FIFO order; popping advances
	// qhead, so the backing array is reused instead of resliced away.
	queue    []*Request
	qhead    int
	inFlight int // requests currently in service (<= VCPUs)

	// Lifetime counters.
	served        uint64
	dropped       uint64
	crashes       uint64
	rejuvenations uint64
	busySeconds   float64 // accumulated service time, for CPU-time features

	// Interval counters, reset by Sample.
	intervalServed  uint64
	intervalRespSum float64 // seconds
	intervalAnomaly uint64
	intervalStart   simclock.Time
	respEWMA        float64 // smoothed response time in seconds, for the SLA clause
	respEWMAPrimed  bool

	// OnFailure, if set, is invoked when the VM reaches its failure point.
	OnFailure func(vm *VM, at simclock.Time)
	// OnRejuvenated, if set, is invoked when a rejuvenation completes and the
	// VM returns to STANDBY.
	OnRejuvenated func(vm *VM, at simclock.Time)
}

// NewVM builds a VM in the STANDBY state, drawing from its own copy of rng
// (a seeded generator, such as one from simclock.RNG.ForkValue).  It keeps
// cfg rather than a copy, so the VMs of a region cost one configuration, not
// one each.
func NewVM(id string, cfg *VMConfig, rng simclock.RNG) *VM {
	vm := new(VM)
	vm.init(id, cfg, rng)
	return vm
}

// init builds the VM NewVM returns in the storage vm points to.
func (vm *VM) init(id string, cfg *VMConfig, rng simclock.RNG) {
	*vm = VM{id: id, cfg: cfg, rng: rng, state: StateStandby}
}

// ID returns the VM identifier.
func (vm *VM) ID() string { return vm.id }

// Type returns the instance type.
func (vm *VM) Type() InstanceType { return vm.cfg.Type }

// State returns the current lifecycle state.
func (vm *VM) State() VMState { return vm.state }

// ShardIndex returns the index of the region shard owning this VM (0 in an
// unsharded region).
func (vm *VM) ShardIndex() int { return vm.shardIndex }

// LeakedMB returns the memory currently pinned by leaks and zombie-thread
// stacks.
func (vm *VM) LeakedMB() float64 {
	return vm.leakedMB + float64(vm.zombieThreads)*vm.cfg.Anomalies.ThreadStackMB
}

// Served returns the number of requests completed over the VM's lifetime.
func (vm *VM) Served() uint64 { return vm.served }

// DroppedRequests returns the number of requests dropped (due to crashes or
// dispatch to a non-active VM) over the VM's lifetime.
func (vm *VM) DroppedRequests() uint64 { return vm.dropped }

// Crashes returns how many times the VM reached its failure point.
func (vm *VM) Crashes() uint64 { return vm.crashes }

// Rejuvenations returns how many rejuvenations completed.
func (vm *VM) Rejuvenations() uint64 { return vm.rejuvenations }

// QueueLength returns the number of requests queued or in service.
func (vm *VM) QueueLength() int { return len(vm.queue) - vm.qhead + vm.inFlight }

// Uptime returns the time elapsed since the last rejuvenation (or since the
// beginning of the simulation for a never-rejuvenated VM).
func (vm *VM) Uptime(now simclock.Time) simclock.Duration { return now.Sub(vm.bootedAt) }

// memoryBudgetMB returns the leak budget before the failure point trips.
func (vm *VM) memoryBudgetMB() float64 { return vm.cfg.Failure.MemoryFraction * vm.cfg.Type.MemoryMB }

// threadBudget returns the zombie-thread budget before the failure point trips.
func (vm *VM) threadBudget() int {
	return int(vm.cfg.Failure.ThreadFraction * float64(vm.cfg.Type.MaxThreads))
}

// DegradationFactor returns the multiplicative slowdown of the service time
// caused by accumulated anomalies.  A healthy VM has factor 1; a VM close to
// its failure point is several times slower, which is what ultimately pushes
// the response time over the SLA.
func (vm *VM) DegradationFactor() float64 {
	memFrac := 0.0
	if b := vm.memoryBudgetMB(); b > 0 {
		memFrac = vm.LeakedMB() / b
	}
	thrFrac := 0.0
	if b := vm.threadBudget(); b > 0 {
		thrFrac = float64(vm.zombieThreads) / float64(b)
	}
	if memFrac > 1 {
		memFrac = 1
	}
	if thrFrac > 1 {
		thrFrac = 1
	}
	// Quadratic growth: mild at first, steep close to the failure point.
	return 1 + 2.5*memFrac*memFrac + 1.5*thrFrac*thrFrac
}

// HealthFraction returns the remaining fraction of the anomaly budget in
// [0,1]: 1 for a freshly rejuvenated VM, 0 at the failure point.  It is the
// simulator's ground truth of "how much life is left", used by tests and by
// the oracle predictor.
func (vm *VM) HealthFraction() float64 {
	memFrac, thrFrac := 0.0, 0.0
	if b := vm.memoryBudgetMB(); b > 0 {
		memFrac = vm.LeakedMB() / b
	}
	if b := vm.threadBudget(); b > 0 {
		thrFrac = float64(vm.zombieThreads) / float64(b)
	}
	worst := math.Max(memFrac, thrFrac)
	if worst > 1 {
		worst = 1
	}
	return 1 - worst
}

// TrueRTTF returns the simulator's ground-truth estimate of the remaining
// time to failure assuming the VM keeps serving ratePerSec requests per
// second.  It is what a perfect ML model would predict; the f2pm package
// trains models to approximate it from observable features only.
func (vm *VM) TrueRTTF(ratePerSec float64) float64 {
	if vm.state == StateFailed {
		return 0
	}
	if ratePerSec <= 0 {
		return math.Inf(1)
	}
	a := vm.cfg.Anomalies
	// Expected anomaly budget consumption per request.
	leakPerReq := a.LeakProbability * a.LeakSizeMB
	threadMemPerReq := a.ThreadProbability * a.ThreadStackMB
	memPerReq := leakPerReq + threadMemPerReq
	threadsPerReq := a.ThreadProbability

	remMem := vm.memoryBudgetMB() - vm.LeakedMB()
	remThr := float64(vm.threadBudget() - vm.zombieThreads)

	reqToMemFail := math.Inf(1)
	if memPerReq > 0 {
		reqToMemFail = remMem / memPerReq
	}
	reqToThrFail := math.Inf(1)
	if threadsPerReq > 0 {
		reqToThrFail = remThr / threadsPerReq
	}
	reqLeft := math.Min(reqToMemFail, reqToThrFail)
	if reqLeft <= 0 {
		return 0
	}
	return reqLeft / ratePerSec
}

// Activate transitions a STANDBY VM to ACTIVE after the configured activation
// latency.  It reports whether the transition was initiated.
func (vm *VM) Activate(eng *simclock.Engine) bool {
	if vm.state != StateStandby {
		return false
	}
	vm.setState(StateActive)
	// Restart the feature-sampling interval so the first sample after
	// activation reports the rate observed since activation, not since the
	// beginning of the simulation.
	vm.intervalStart = eng.Now()
	vm.intervalServed = 0
	vm.intervalRespSum = 0
	vm.intervalAnomaly = 0
	return true
}

// Deactivate moves an ACTIVE VM back to STANDBY without clearing its anomaly
// state (used by the elasticity controller when shrinking a region).  Queued
// requests are allowed to drain: the VM stops accepting new requests
// immediately but completes the ones already dispatched.
func (vm *VM) Deactivate() bool {
	if vm.state != StateActive {
		return false
	}
	vm.setState(StateStandby)
	return true
}

// Rejuvenate starts a software rejuvenation: the VM stops serving, drops any
// queued requests, and after the configured duration returns to STANDBY with
// its anomaly state cleared.  It reports whether rejuvenation was initiated.
func (vm *VM) Rejuvenate(eng *simclock.Engine) bool {
	if vm.state == StateRejuvenating {
		return false
	}
	vm.failQueued(eng, "")
	vm.setState(StateRejuvenating)
	eng.ScheduleFunc(vm.cfg.Rejuvenation.RejuvenateDuration, func(e *simclock.Engine) {
		vm.completeRejuvenation(e.Now())
	})
	return true
}

// completeRejuvenation clears the anomaly state and returns the VM to STANDBY.
func (vm *VM) completeRejuvenation(now simclock.Time) {
	vm.leakedMB = 0
	vm.zombieThreads = 0
	vm.respEWMA = 0
	vm.respEWMAPrimed = false
	vm.setState(StateStandby)
	vm.bootedAt = now
	vm.intervalStart = now
	vm.intervalServed = 0
	vm.intervalRespSum = 0
	vm.intervalAnomaly = 0
	vm.rejuvenations++
	if vm.OnRejuvenated != nil {
		vm.OnRejuvenated(vm, now)
	}
}

// Dispatch hands a request to the VM.  It returns false (and completes the
// request as dropped) when the VM is not ACTIVE.
func (vm *VM) Dispatch(eng *simclock.Engine, req *Request) bool {
	if vm.state != StateActive {
		vm.dropped += req.Weight()
		req.Finish(eng, Outcome{Request: req, VM: vm.id, Start: eng.Now(), End: eng.Now(), Dropped: true})
		return false
	}
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Event(tracing.EventVMEnqueue, eng.Now(),
			fmt.Sprintf("vm=%s depth=%d", vm.id, vm.QueueLength()))
	}
	if len(vm.queue) == cap(vm.queue) && vm.qhead > 0 {
		// Slide the waiting requests to the front instead of growing.
		n := copy(vm.queue, vm.queue[vm.qhead:])
		clear(vm.queue[n:])
		vm.queue, vm.qhead = vm.queue[:n], 0
	}
	vm.queue = append(vm.queue, req)
	vm.syncLoad()
	vm.tryStartService(eng)
	return true
}

// tryStartService starts service for queued requests while vCPUs are free.
func (vm *VM) tryStartService(eng *simclock.Engine) {
	for vm.inFlight < vm.cfg.Type.VCPUs && vm.qhead < len(vm.queue) {
		req := vm.queue[vm.qhead]
		vm.queue[vm.qhead] = nil
		vm.qhead++
		if vm.qhead == len(vm.queue) {
			vm.queue, vm.qhead = vm.queue[:0], 0
		}
		vm.inFlight++
		req.vm = vm
		req.start = eng.Now()
		eng.Schedule(vm.sampleServiceTime(req), (*serviceCompletion)(req))
	}
}

// serviceCompletion is a request in service seen as its own completion
// event: the VM and the service start travel in the request's unexported
// fields, so starting a service allocates no closure.  A named type keeps
// Fire off the exported Request API.
type serviceCompletion Request

// Fire implements simclock.Event.
func (c *serviceCompletion) Fire(eng *simclock.Engine) {
	req := (*Request)(c)
	vm := req.vm
	req.vm = nil
	vm.completeService(eng, req, req.start)
}

// sampleServiceTime draws the service time of a request given the VM's
// current degradation.
func (vm *VM) sampleServiceTime(req *Request) simclock.Duration {
	base := vm.cfg.Type.BaseServiceMs / 1000.0 // seconds on this instance type
	factor := req.ServiceFactor
	if factor <= 0 {
		factor = 1
	}
	mean := base * factor * vm.DegradationFactor()
	if k := req.Batch; k > 1 {
		// A cohort batch is k interactions served back to back: the batch's
		// service time is the sum of k exponential demands (Erlang), floored
		// at the same 5% of its total mean an individual request gets.
		st := vm.rng.Erlang(k, mean)
		if floor := mean * 0.05 * float64(k); st < floor {
			st = floor
		}
		return simclock.Duration(st)
	}
	// Exponentially distributed service demand around the mean keeps the
	// queueing behaviour realistic (M/M/c-like) without heavy tails that
	// would swamp the anomaly-driven signal.
	st := vm.rng.Exp(mean)
	if st < mean*0.05 {
		st = mean * 0.05
	}
	return simclock.Duration(st)
}

// completeService finishes one request: records metrics, injects anomalies,
// checks the failure point and pulls the next queued request.
func (vm *VM) completeService(eng *simclock.Engine, req *Request, start simclock.Time) {
	vm.inFlight--
	vm.syncLoad()
	now := eng.Now()
	vm.busySeconds += now.Sub(start).Seconds()

	if vm.state == StateRejuvenating || vm.state == StateFailed {
		// The VM went down while this request was in service.
		vm.dropped += req.Weight()
		req.Finish(eng, Outcome{Request: req, VM: vm.id, Start: start, End: now, Dropped: true})
		return
	}

	vm.served += req.Weight()
	vm.intervalServed += req.Weight()
	resp := now.Sub(req.Arrival).Seconds()
	if k := req.Batch; k > 1 {
		// Per-interaction view of the batch: each of the k interactions
		// waited the same queue delay but occupied the server for 1/k of the
		// batch's service span.  Feeding the normalised value into the
		// response EWMA (and the interval mean, weighted by k) keeps the
		// SLA-failure clause and the ResponseTimeMs feature on the scale of
		// a single interaction.
		resp = start.Sub(req.Arrival).Seconds() + now.Sub(start).Seconds()/float64(k)
		vm.intervalRespSum += resp * float64(k)
	} else {
		vm.intervalRespSum += resp
	}
	const respBeta = 0.1
	if !vm.respEWMAPrimed {
		vm.respEWMA = resp
		vm.respEWMAPrimed = true
	} else {
		vm.respEWMA = (1-respBeta)*vm.respEWMA + respBeta*resp
	}

	vm.injectAnomalies(req.Batch)
	req.Finish(eng, Outcome{Request: req, VM: vm.id, Start: start, End: now})

	if vm.failurePointReached() {
		vm.fail(eng)
		return
	}
	vm.tryStartService(eng)
}

// injectAnomalies applies the per-request anomaly injection of the modified
// TPC-W benchmark.  A cohort batch of n interactions injects the aggregate:
// the number of leaking (resp. thread-leaking) interactions is binomial in n,
// and the leaked megabytes are the Erlang sum of that many individual leaks —
// exactly the distribution n individual requests would have produced, in two
// RNG draws instead of 2n.
func (vm *VM) injectAnomalies(batch int) {
	a := vm.cfg.Anomalies
	if batch > 1 {
		if leaks := vm.rng.BinomialWith(batch, a.LeakProbability, vm.cfg.leakPow); leaks > 0 {
			vm.leakedMB += vm.rng.Erlang(leaks, a.LeakSizeMB)
			vm.intervalAnomaly += uint64(leaks)
		}
		if threads := vm.rng.BinomialWith(batch, a.ThreadProbability, vm.cfg.threadPow); threads > 0 {
			vm.zombieThreads += threads
			vm.intervalAnomaly += uint64(threads)
		}
		return
	}
	if vm.rng.Bool(a.LeakProbability) {
		vm.leakedMB += vm.rng.Exp(a.LeakSizeMB)
		vm.intervalAnomaly++
	}
	if vm.rng.Bool(a.ThreadProbability) {
		vm.zombieThreads++
		vm.intervalAnomaly++
	}
}

// failurePointReached checks the user-defined failure point.
func (vm *VM) failurePointReached() bool {
	if vm.LeakedMB() >= vm.memoryBudgetMB() {
		return true
	}
	if vm.zombieThreads >= vm.threadBudget() {
		return true
	}
	if sla := vm.cfg.Failure.ResponseTimeSLAMs; sla > 0 && vm.respEWMAPrimed {
		if vm.respEWMA*1000 >= sla*2 {
			// The smoothed response time is persistently at twice the SLA:
			// treat it as a failure even before the memory budget is gone.
			return true
		}
	}
	return false
}

// fail marks the VM as failed, drops in-flight work and notifies the owner.
func (vm *VM) fail(eng *simclock.Engine) {
	if vm.state == StateFailed {
		return
	}
	vm.setState(StateFailed)
	vm.crashes++
	vm.failQueued(eng, vm.id)
	if vm.OnFailure != nil {
		vm.OnFailure(vm, eng.Now())
	}
}

// failQueued drops every queued (not yet in-service) request.
func (vm *VM) failQueued(eng *simclock.Engine, vmID string) {
	now := eng.Now()
	for _, q := range vm.queue[vm.qhead:] {
		vm.dropped += q.Weight()
		q.Finish(eng, Outcome{Request: q, VM: vmID, Start: now, End: now, Dropped: true})
	}
	clear(vm.queue)
	vm.queue, vm.qhead = vm.queue[:0], 0
	vm.syncLoad()
}

// PreAge loads the VM with an initial amount of accumulated anomalies,
// expressed as a fraction of its failure budget in [0,1).  Deployments use it
// to model server replicas that have already been running for a while when
// the experiment starts, so that their rejuvenation points are naturally
// staggered instead of all VMs ageing in lockstep.
func (vm *VM) PreAge(fraction float64) {
	if fraction > 0.95 {
		fraction = 0.95
	}
	vm.leakedMB = fraction * vm.memoryBudgetMB() * 0.9
	vm.zombieThreads = int(fraction * float64(vm.threadBudget()) * 0.5)
}

// RecoverFromFailure restarts a FAILED VM through the rejuvenation path
// (reactive recovery).  It reports whether recovery was initiated.
func (vm *VM) RecoverFromFailure(eng *simclock.Engine) bool {
	if vm.state != StateFailed {
		return false
	}
	return vm.Rejuvenate(eng)
}

// featureNoise is the relative Gaussian measurement noise of each feature
// slot; a slot without noise is measured exactly.
var featureNoise = [features.NumFeatures]float64{
	features.SlotMemUsedMB:       0.02,
	features.SlotMemFreeMB:       0.02,
	features.SlotSwapUsedMB:      0.05,
	features.SlotHeapMB:          0.03,
	features.SlotThreadCount:     0.02,
	features.SlotCPUUtilization:  0.05,
	features.SlotDiskUsedMB:      0.01,
	features.SlotNetConnections:  0.05,
	features.SlotRequestRate:     0.03,
	features.SlotResponseTimeMs:  0.03,
	features.SlotPageFaultRate:   0.10,
	features.SlotContextSwitches: 0.10,
	features.SlotGCPauseMs:       0.15,
	features.SlotOpenFiles:       0.05,
	features.SlotSocketsTimeWait: 0.15,
}

// Sample produces the feature vector observable on this VM at the given time
// and resets the per-interval counters.  Only the features in mask are
// measured; the other slots stay 0.  Measurement noise is added so the ML
// models face realistic inputs rather than exact simulator state.  An
// unmeasured noisy feature still consumes its noise draw, because the VM's
// generator also drives its service times and anomaly injection: the mask
// changes which values are computed, never the VM's random stream.  The
// draws run in feature-slot order, and the unread ones are paid in runs
// (simclock.RNG.SkipNormals) just before the next read draw and at the end.
// A zero value draws no noise, measured or not, and its slot already holds 0.
func (vm *VM) Sample(now simclock.Time, mask features.Mask) features.Vector {
	intervalS := now.Sub(vm.intervalStart).Seconds()
	if intervalS <= 0 {
		intervalS = 1
	}
	rate := float64(vm.intervalServed) / intervalS
	meanResp := 0.0
	if vm.intervalServed > 0 {
		meanResp = vm.intervalRespSum / float64(vm.intervalServed)
	}
	memMB := vm.cfg.Type.MemoryMB
	leaked := vm.LeakedMB()
	baseMem := 0.18 * memMB // OS + idle server footprint
	used := min(baseMem+leaked, memMB)
	swap := 0.0
	if over := leaked - 0.55*memMB; over > 0 {
		swap = over
	}
	util := min(float64(vm.inFlight)/float64(vm.cfg.Type.VCPUs), 1)

	x := [features.NumFeatures]float64{
		features.SlotMemUsedMB:        used,
		features.SlotMemFreeMB:        math.Max(memMB-used, 0),
		features.SlotSwapUsedMB:       swap,
		features.SlotHeapMB:           0.6*baseMem + vm.leakedMB,
		features.SlotThreadCount:      32 + float64(vm.zombieThreads) + 4*float64(vm.inFlight),
		features.SlotZombieThreads:    float64(vm.zombieThreads),
		features.SlotCPUUtilization:   0.1 + 0.8*util,
		features.SlotCPUTimeSec:       vm.busySeconds,
		features.SlotDiskUsedMB:       0.3*vm.cfg.Type.DiskGB*1024 + 0.05*leaked,
		features.SlotNetConnections:   8 + 2*rate,
		features.SlotRequestRate:      rate,
		features.SlotResponseTimeMs:   meanResp * 1000,
		features.SlotQueueLength:      float64(vm.QueueLength()),
		features.SlotPageFaultRate:    5 + 30*swap/math.Max(memMB, 1),
		features.SlotContextSwitches:  200 + 80*rate,
		features.SlotUptimeSec:        vm.Uptime(now).Seconds(),
		features.SlotGCPauseMs:        2 + 40*leaked/math.Max(vm.memoryBudgetMB(), 1),
		features.SlotOpenFiles:        64 + 3*rate,
		features.SlotSocketsTimeWait:  4 * rate,
		features.SlotAnomalyEventRate: float64(vm.intervalAnomaly) / intervalS,
	}
	v := features.NewVector(vm.id, now.Seconds())
	unread := 0 // noise draws of unread features not yet paid
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		if mask&(1<<i) == 0 {
			if featureNoise[i] > 0 {
				unread++
			}
			continue
		}
		if featureNoise[i] > 0 {
			vm.rng.SkipNormals(unread)
			unread = 0
			xi *= 1 + vm.rng.Normal(0, featureNoise[i])
		}
		v.SetSlot(i, xi)
	}
	vm.rng.SkipNormals(unread)
	if v.Slot(features.SlotCPUUtilization) > 1 {
		v.SetSlot(features.SlotCPUUtilization, 1) // noise cannot push utilisation past saturation
	}

	vm.intervalServed = 0
	vm.intervalRespSum = 0
	vm.intervalAnomaly = 0
	vm.intervalStart = now
	return v
}

// String summarises the VM for debugging.
func (vm *VM) String() string {
	return fmt.Sprintf("%s[%s %s leaked=%.0fMB zt=%d served=%d crashes=%d]",
		vm.id, vm.cfg.Type.Name, vm.state, vm.LeakedMB(), vm.zombieThreads, vm.served, vm.crashes)
}
