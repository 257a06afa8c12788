// Package pcam reproduces the PCAM framework ("Machine Learning for Achieving
// Self-* Properties and Seamless Execution of Applications in the Cloud",
// NCCA 2015) that manages a single cloud region inside ACM.  Its central
// component is the Virtual Machine Controller (VMC): it keeps some VMs
// hosting server replicas ACTIVE and others STANDBY, maps an ML model to each
// VM to predict its Remaining Time To Failure at runtime, and whenever the
// predicted RTTF of an ACTIVE VM drops below a threshold it sends an ACTIVATE
// command to a STANDBY VM and a REJUVENATE command to the about-to-fail VM.
// The VMC also implements the ADDVMS elasticity action used by the closed
// control loop when the predicted response time exceeds its threshold.  On
// a sharded event loop the region balances its own requests
// (cloudsim.Region.SubmitShard and Send); Submit is the balancer of a
// region on one standalone engine.
package pcam

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/validate"
)

// RTTFPredictor estimates the remaining time to failure of a VM from its most
// recent feature sample.  The production implementation wraps an f2pm model;
// the oracle implementation uses the simulator's ground truth and exists to
// quantify how much prediction error costs (an ablation the reproduction
// adds).
//
// When the VMC runs sharded on an event loop with more than one worker, its
// control tick calls PredictRTTF concurrently from the per-shard goroutines,
// so it must be safe for concurrent use.  The bundled predictors qualify:
// OraclePredictor is stateless and ModelPredictor only reads the trained
// model.
type RTTFPredictor interface {
	// PredictRTTF returns the estimated remaining time to failure in seconds.
	PredictRTTF(vm *cloudsim.VM, sample features.Vector) float64
}

// FeatureReader is implemented by a predictor, or by the model a
// ModelPredictor wraps, that reads only some slots of the feature vector.
// The VMC's monitor measures only those slots and the two it reads itself
// (request_rate and response_time_ms); every other slot of the sample it
// hands the predictor is 0.  A predictor or model that does not implement
// FeatureReader is handed every feature.
type FeatureReader interface {
	// ReadsFeatures returns the mask of the features PredictRTTF reads.
	ReadsFeatures() features.Mask
}

// readsFeatures returns the features x declares it reads: every feature
// unless x is a FeatureReader.
func readsFeatures(x any) features.Mask {
	if r, ok := x.(FeatureReader); ok {
		return r.ReadsFeatures()
	}
	return features.All
}

// PredictorFunc adapts a function to the RTTFPredictor interface.  It
// declares no feature subset, so it is handed every feature.
type PredictorFunc func(vm *cloudsim.VM, sample features.Vector) float64

// PredictRTTF implements RTTFPredictor.
func (f PredictorFunc) PredictRTTF(vm *cloudsim.VM, sample features.Vector) float64 {
	return f(vm, sample)
}

// ModelPredictor adapts any feature-vector predictor (such as *f2pm.Model) to
// the RTTFPredictor interface.
type ModelPredictor struct {
	// Model maps a feature vector to an RTTF estimate in seconds.
	Model interface {
		PredictRTTF(v features.Vector) float64
	}
}

// PredictRTTF implements RTTFPredictor by delegating to the wrapped model.
func (p ModelPredictor) PredictRTTF(_ *cloudsim.VM, sample features.Vector) float64 {
	return p.Model.PredictRTTF(sample)
}

// ReadsFeatures implements FeatureReader: the wrapped model's features when
// it declares them (an *f2pm.Model declares its Lasso-selected subset),
// every feature otherwise.
func (p ModelPredictor) ReadsFeatures() features.Mask { return readsFeatures(p.Model) }

// OraclePredictor returns the simulator's ground-truth RTTF given the VM's
// currently observed request rate.  It represents a perfect ML model.
//
// Like a trained F2PM model — whose predictions are bounded by the label
// range it saw during profiling — the oracle clamps its output: the request
// rate is floored (an active VM behind a load balancer always receives at
// least a trickle of traffic) and the predicted RTTF is capped.  Without the
// clamps an almost-idle VM would report an effectively infinite MTTF, which
// no real predictor would produce and which destabilises the resource
// estimation of Policy 2.
type OraclePredictor struct{}

// Prediction clamps applied by OraclePredictor (exported so experiments can
// reason about the predictor's range).
const (
	// OracleMinRate is the floor applied to the observed per-VM request rate
	// before computing the ground-truth RTTF.
	OracleMinRate = 0.5
	// OracleMaxRTTF is the cap applied to the predicted RTTF, mirroring the
	// bounded label range of a trained model: the F2PM profiling runs observe
	// failure episodes of at most about an hour, so no trained model would
	// ever predict a remaining lifetime beyond that (seconds).
	OracleMaxRTTF = 3600.0
)

// PredictRTTF implements RTTFPredictor.
func (OraclePredictor) PredictRTTF(vm *cloudsim.VM, sample features.Vector) float64 {
	rate := sample.Get(features.RequestRate)
	if rate < OracleMinRate {
		rate = OracleMinRate
	}
	rttf := vm.TrueRTTF(rate)
	if math.IsInf(rttf, 1) || rttf > OracleMaxRTTF {
		return OracleMaxRTTF
	}
	return rttf
}

// ReadsFeatures implements FeatureReader: the oracle reads only the request
// rate.
func (OraclePredictor) ReadsFeatures() features.Mask {
	return features.MaskOf(features.RequestRate)
}

// Config tunes a VMC.
type Config struct {
	// RTTFThreshold is the predicted-RTTF threshold (seconds) below which the
	// VMC proactively rejuvenates an ACTIVE VM and activates a STANDBY one
	// (WithDefaults fills 0 with 600 s).
	RTTFThreshold float64 `domain:">0"`
	// ControlInterval is the period of the VMC's local monitor/analyze step
	// (WithDefaults fills 0 with 30 s).
	ControlInterval simclock.Duration `domain:">0"`
	// ResponseTimeThreshold is the predicted response-time threshold (seconds)
	// above which the VMC adds VMs to the active pool (the ADDVMS action of
	// Algorithm 3).  The paper uses a 1-second SLA (WithDefaults fills 0
	// with 1).
	ResponseTimeThreshold float64 `domain:">0"`
	// MinActive is the minimum number of ACTIVE VMs the elasticity controller
	// keeps (WithDefaults fills 0 with 1).
	MinActive int `domain:">0"`
	// TargetActive is the number of ACTIVE VMs the controller maintains: when
	// failures or rejuvenations shrink the active pool below the target and
	// healthy standby VMs are available, the control tick promotes standbys
	// until the target is reached again.  Zero means "the number of VMs that
	// were active when the controller started".
	TargetActive int `domain:">=0"`
	// ScaleDownRMTTF: when the region's RMTTF exceeds this threshold
	// (seconds) and more than MinActive VMs are active, one VM is deactivated
	// (the "deactivate some active VMs" branch of Section V).  Zero disables
	// scale-down.
	ScaleDownRMTTF float64 `domain:">=0"`
	// ElasticityEnabled turns the ADDVMS / scale-down logic on.
	ElasticityEnabled bool
	// RMTTFBeta is the smoothing factor applied to the locally computed
	// region RMTTF before it is reported to the leader (the paper smooths at
	// the leader with equation 1; smoothing locally as well keeps the local
	// elasticity decisions from reacting to single-sample noise;
	// WithDefaults fills 0 with 0.5).
	RMTTFBeta float64 `domain:"(0,1]"`
}

// WithDefaults fills each zero that a field's comment says selects a
// default (TargetActive's and ScaleDownRMTTF's 0 mean something).  NewVMC
// applies it too, a no-op on a built scenario's config.
func (c Config) WithDefaults() Config {
	c.RTTFThreshold = cmp.Or(c.RTTFThreshold, 600)
	c.ControlInterval = cmp.Or(c.ControlInterval, 30*simclock.Second)
	c.ResponseTimeThreshold = cmp.Or(c.ResponseTimeThreshold, 1.0)
	c.MinActive = cmp.Or(c.MinActive, 1)
	c.RMTTFBeta = cmp.Or(c.RMTTFBeta, 0.5)
	return c
}

// Stats aggregates the VMC's lifetime counters.
type Stats struct {
	// ProactiveRejuvenations counts rejuvenations triggered by the RTTF
	// threshold (the intended path).
	ProactiveRejuvenations uint64
	// ReactiveRecoveries counts recoveries of VMs that failed before the
	// predictor caught them.
	ReactiveRecoveries uint64
	// Activations counts STANDBY->ACTIVE transitions commanded by the VMC.
	Activations uint64
	// ProvisionedVMs counts VMs added through the ADDVMS action.
	ProvisionedVMs uint64
	// ControlTicks counts executed control iterations.
	ControlTicks uint64
}

// VMC is the Virtual Machine Controller of one cloud region.
type VMC struct {
	region    *cloudsim.Region
	predictor RTTFPredictor
	cfg       Config
	// measure is the set of features the monitor samples: what the
	// predictor reads plus what shardTick reads itself.
	measure features.Mask

	rr           int // round-robin cursor of the local load balancer
	shardRR      int // rotation cursor over the region's shards
	rmttf        *stats.EWMA
	lastRMTTF    float64 // last raw (un-smoothed) RMTTF computed from predictions
	targetActive int
	targetForced bool // a scripted outage holds the target; elasticity is suspended

	// Reusable scratch buffers that keep the per-tick hot path
	// allocation-free: one shardScratch per region shard for the control
	// tick's parallel phase and one for the elasticity controller's
	// region-wide scan.
	scratch     []shardScratch
	elastActive []*cloudsim.VM

	// se is the owning ShardedEngine (eventloop.go), nil when the
	// controller runs on a standalone engine (Start); the sub-engine of each
	// region shard is the region's binding (Region.ShardEngine).
	se *simclock.ShardedEngine

	// shardPhase is the control tick's per-shard phase as handed to
	// ShardedEngine.ParallelPhase, built once in StartSharded so that a tick
	// allocates nothing; it reads tickNow, written before the phase.
	shardPhase func(s int)
	tickNow    simclock.Time

	// flight, when set, receives the control tick's phase timings (sim-time
	// instants with deterministic item counts) for the engine flight recorder.
	flight *simclock.FlightRecorder

	stats   Stats
	started bool
	stop    func()
}

// NewVMC builds the controller for a region.  The predictor must not be nil.
func NewVMC(region *cloudsim.Region, predictor RTTFPredictor, cfg Config) (*VMC, error) {
	if region == nil {
		return nil, fmt.Errorf("pcam: nil region")
	}
	if predictor == nil {
		return nil, fmt.Errorf("pcam: nil predictor")
	}
	cfg = cfg.WithDefaults()
	if err := validate.Struct("pcam", &cfg); err != nil {
		return nil, err
	}
	target := cfg.TargetActive
	if target <= 0 {
		target = region.ActiveCount()
	}
	if target < cfg.MinActive {
		target = cfg.MinActive
	}
	return &VMC{
		region:       region,
		predictor:    predictor,
		cfg:          cfg,
		measure:      readsFeatures(predictor) | features.MaskOf(features.RequestRate, features.ResponseTimeMs),
		rmttf:        stats.NewEWMA(cfg.RMTTFBeta),
		targetActive: target,
	}, nil
}

// ForceTargetActive overrides the controller's active-pool target and
// immediately deactivates ACTIVE VMs (newest first, letting in-flight
// requests drain) until at most n remain, returning the previous target.
// It is the region-outage lever of the fault-injection machinery: forcing
// n=0 blacks the region out — the control tick cannot promote standbys
// while the target is zero, and the elasticity controller is suspended so
// an SLA spike during the blackout cannot re-activate capacity behind the
// fault's back.  Restore with RestoreTargetActive.  On a sharded event loop
// both must be called from the control timeline (exclusive access to every
// shard).
func (v *VMC) ForceTargetActive(n int) int {
	prev := v.targetActive
	if n < 0 {
		n = 0
	}
	v.targetActive = n
	v.targetForced = true
	if excess := v.region.ActiveCount() - n; excess > 0 {
		v.elastActive = v.region.AppendByState(v.elastActive[:0], cloudsim.StateActive)
		active := v.elastActive
		for i := len(active) - 1; i >= 0 && excess > 0; i-- {
			if active[i].Deactivate() {
				excess--
			}
		}
	}
	return prev
}

// RestoreTargetActive ends a forced outage: the target returns to n (as
// returned by ForceTargetActive) and the next control tick repromotes
// standbys; the elasticity controller resumes from that target.
func (v *VMC) RestoreTargetActive(n int) {
	if n < 0 {
		n = 0
	}
	v.targetActive = n
	v.targetForced = false
}

// SetFlightRecorder attaches the engine flight recorder: every control tick
// then records its monitor and rejuvenation phases as sim-time instants with
// deterministic item counts (never wall-clock measurements, which would break
// byte-identical output across worker counts).
func (v *VMC) SetFlightRecorder(fr *simclock.FlightRecorder) { v.flight = fr }

// Config returns the controller configuration (with defaults applied).
func (v *VMC) Config() Config { return v.cfg }

// Stats returns a copy of the lifetime counters.
func (v *VMC) Stats() Stats { return v.stats }

// Start installs the failure hooks and the periodic control tick.
func (v *VMC) Start(eng *simclock.Engine) {
	if v.started {
		return
	}
	v.started = true
	for _, vm := range v.region.VMs() {
		v.hookVM(eng, vm)
	}
	v.stop = eng.Ticker(v.cfg.ControlInterval, func(e *simclock.Engine) { v.ControlTick(e) })
}

// Stop halts the periodic control tick.
func (v *VMC) Stop() {
	if v.stop != nil {
		v.stop()
		v.stop = nil
	}
	v.started = false
}

// hookVM chains the reactive-recovery handler onto the VM's failure hook.
// On a sharded event loop the reaction crosses shards, so it is posted to
// the control timeline instead of running inline (see hookVMSharded).
func (v *VMC) hookVM(eng *simclock.Engine, vm *cloudsim.VM) {
	if v.se != nil {
		v.hookVMSharded(vm)
		return
	}
	prev := vm.OnFailure
	vm.OnFailure = func(failed *cloudsim.VM, at simclock.Time) {
		if prev != nil {
			prev(failed, at)
		}
		v.stats.ReactiveRecoveries++
		// Promote a standby replacement immediately, then restart the failed
		// VM through the rejuvenation path.
		v.activateStandby(eng)
		failed.RecoverFromFailure(eng)
	}
}

// Submit implements the region's load balancer: a shard is selected by
// rotating over the region's shards (which spreads arrivals evenly), and
// within the shard the request is dispatched to the ACTIVE VM with the
// shortest queue (ties broken round-robin), which both spreads load and
// avoids pushing work onto a VM that is already struggling.  The shard's
// dispatch index answers the pick (cloudsim.Region.PickShortestInShard), so
// no VM states are scanned per request.  Shards with no ACTIVE VM (e.g.
// mid-rejuvenation) are skipped; when no shard has one the request is
// dropped.  With one shard this is exactly the classic whole-pool
// shortest-queue balancer.
func (v *VMC) Submit(eng *simclock.Engine, req *cloudsim.Request) {
	for tries, n := 0, v.region.NumShards(); tries < n; tries++ {
		v.shardRR++
		if s := v.shardRR % n; v.region.ActiveCountInShard(s) > 0 {
			v.rr++
			v.region.PickShortestInShard(s, v.rr).Dispatch(eng, req)
			return
		}
	}
	req.Finish(eng, cloudsim.Outcome{Request: req, Region: v.region.Name(), Start: eng.Now(), End: eng.Now(), Dropped: true})
}

// vmPrediction couples one ACTIVE VM with its freshly predicted RTTF.
type vmPrediction struct {
	vm   *cloudsim.VM
	rttf float64
}

// byRTTF orders predictions worst-first with plain < semantics, the order
// sort.Slice gives under the same less function (cmp.Compare would place NaN
// differently).
func byRTTF(a, b vmPrediction) int {
	switch {
	case a.rttf < b.rttf:
		return -1
	case b.rttf < a.rttf:
		return 1
	}
	return 0
}

// shardScratch is one shard's slice of the control tick: the reusable buffers
// the shard's monitor/analyze phase fills and the partial aggregates the
// serial merge phase consumes.  One instance exists per region shard and is
// touched by exactly one goroutine during the parallel phase, so the tick
// needs no locking and the buffers keep the hot path allocation-free.
type shardScratch struct {
	active []*cloudsim.VM // reusable ACTIVE-VM scan buffer
	preds  []vmPrediction // this tick's predictions, sorted worst-first

	// Partial aggregates, merged region-wide in shard-index order.
	sum         float64 // reported-RTTF partial sum
	reportable  int     // VMs contributing to the RMTTF
	respSum     float64 // response-time partial sum (seconds)
	respSamples int
	sampled     int // ACTIVE VMs sampled in this shard
}

// ControlTick runs one local monitor/analyze/execute iteration in three
// phases:
//
//  1. Serial pre-phase: refill the active pool to its target size (state
//     transitions schedule engine events, so this cannot run concurrently).
//  2. Per-shard phase: every shard samples its own ACTIVE VMs, predicts
//     their RTTF and sorts its rejuvenation candidates worst-first, writing
//     only to its shardScratch.  When the VMC runs sharded (StartSharded),
//     the phase is the event loop's simclock.ShardedEngine.ParallelPhase:
//     on the loop's worker pool when it has more than one worker, otherwise
//     inline in shard-index order.  On a standalone engine (Start) the same
//     per-shard code runs in a plain loop in shard-index order.
//  3. Barrier + serial merge: the per-shard partials are folded in
//     shard-index order into the region RMTTF, the about-to-fail VMs are
//     rejuvenated (worst first within each shard) and the elasticity actions
//     apply region-wide.
//
// Because each VM owns a forked RNG stream and VMs never migrate between
// shards, the per-shard phase consumes randomness deterministically no matter
// how the goroutines interleave; together with the ordered merge this makes
// the tick byte-identical for every worker count and any GOMAXPROCS.
// With one shard the iteration is exactly the classic whole-pool scan; with N
// shards each scan and each worst-first sort touches only pool/N VMs.
func (v *VMC) ControlTick(eng *simclock.Engine) {
	v.stats.ControlTicks++
	// Keep the active pool at its target size: failures and rejuvenations
	// shrink it, and rejuvenated VMs come back as STANDBY.
	for v.region.ActiveCount() < v.targetActive {
		if !v.activateStandby(eng) {
			break
		}
	}

	// Monitor + analyze: the per-shard phase, fanned out over the event
	// loop's workers when running sharded.
	numShards := v.region.NumShards()
	if len(v.scratch) < numShards {
		v.scratch = append(v.scratch, make([]shardScratch, numShards-len(v.scratch))...)
	}
	now := eng.Now()
	if v.se != nil {
		v.tickNow = now
		v.se.ParallelPhase(numShards, v.shardPhase)
	} else {
		for s := 0; s < numShards; s++ {
			v.shardTick(now, s)
		}
	}

	// Merge: fold the partials in shard-index order (floating-point addition
	// is order-sensitive, so the fold order is part of the determinism
	// contract).
	rejBefore := v.stats.ProactiveRejuvenations
	sum := 0.0
	reportable := 0
	respSum := 0.0
	respSamples := 0
	sampled := 0
	for s := 0; s < numShards; s++ {
		sc := &v.scratch[s]
		sampled += sc.sampled
		sum += sc.sum
		reportable += sc.reportable
		respSum += sc.respSum
		respSamples += sc.respSamples
	}
	if v.flight != nil && sampled > 0 {
		v.flight.RecordPhase(now, v.region.Name()+"/vmc.monitor", uint64(sampled))
	}
	if sampled == 0 {
		return
	}
	if reportable > 0 {
		v.lastRMTTF = sum / float64(reportable)
		v.rmttf.Update(v.lastRMTTF)
	}
	meanResp := 0.0
	if respSamples > 0 {
		meanResp = respSum / float64(respSamples)
	}

	// Execute: proactive rejuvenation of about-to-fail VMs (worst first
	// within each shard, and never below MinActive active VMs region-wide
	// unless a standby can take over).
	for s := 0; s < numShards; s++ {
		for _, p := range v.scratch[s].preds {
			if p.rttf >= v.cfg.RTTFThreshold {
				break
			}
			replaced := v.activateStandby(eng)
			if !replaced && v.region.ActiveCount() <= v.cfg.MinActive {
				// No spare capacity: keep the VM alive rather than dropping
				// below the minimum; the next tick will retry.
				continue
			}
			if p.vm.Rejuvenate(v.engineForVM(eng, p.vm)) {
				v.stats.ProactiveRejuvenations++
			}
		}
	}

	if v.flight != nil {
		if rej := v.stats.ProactiveRejuvenations - rejBefore; rej > 0 {
			v.flight.RecordPhase(now, v.region.Name()+"/vmc.rejuvenate", rej)
		}
	}

	if v.cfg.ElasticityEnabled {
		v.applyElasticity(eng, meanResp)
	}
}

// shardTick is the per-shard monitor/analyze phase of one control tick: it
// samples the measured features (v.measure) of every ACTIVE VM of shard s,
// predicts its RTTF, accumulates the shard's partial aggregates and sorts the
// shard's rejuvenation candidates worst-first.  It writes only to
// v.scratch[s] and the shard's own VMs, reads no engine state beyond the
// prefetched timestamp, and schedules nothing — the contract that makes it
// safe to run concurrently with the other shards' phases.
func (v *VMC) shardTick(now simclock.Time, s int) {
	sc := &v.scratch[s]
	sc.sum, sc.reportable, sc.respSum, sc.respSamples, sc.sampled = 0, 0, 0, 0, 0
	sc.preds = sc.preds[:0]
	sc.active = v.region.AppendByStateInShard(sc.active[:0], s, cloudsim.StateActive)
	if len(sc.active) == 0 {
		return
	}
	sc.sampled = len(sc.active)
	for _, vm := range sc.active {
		sample := vm.Sample(now, v.measure)
		rttf := v.predictor.PredictRTTF(vm, sample)
		resp := sample.Slot(features.SlotResponseTimeMs) / 1000
		sc.preds = append(sc.preds, vmPrediction{vm: vm, rttf: rttf})
		if sample.Slot(features.SlotRequestRate) <= 0 {
			// A VM that served nothing in the interval (typically one that
			// was activated moments ago) carries no information about the
			// region's health; folding its "no data" prediction into the
			// RMTTF would inflate the estimate exactly when the region is
			// churning.
			continue
		}
		// The failure point of F2PM is not only a crash: a sustained SLA
		// violation counts as a failure too.  A VM whose observed response
		// time already exceeds the SLA is therefore on its way to the
		// failure point no matter how much anomaly budget is left, so the
		// RMTTF reported to the leader reflects that (the policies then
		// move load away from the overloaded region).  The per-VM
		// rejuvenation decision in the merge phase keeps using the
		// anomaly-based prediction: rejuvenating a fresh-but-overloaded VM
		// would not help.
		reported := rttf
		if v.cfg.ResponseTimeThreshold > 0 && resp > v.cfg.ResponseTimeThreshold {
			if slaRTTF := v.cfg.RTTFThreshold * v.cfg.ResponseTimeThreshold / resp; slaRTTF < reported {
				reported = slaRTTF
			}
		}
		sc.sum += reported
		sc.reportable++
		sc.respSum += resp
		sc.respSamples++
	}
	slices.SortFunc(sc.preds, byRTTF)
}

// applyElasticity implements the ADDVMS action and the scale-down branch.
// It is suspended while a scripted outage holds the target (targetForced):
// the blackout's drained-but-slow completions would otherwise trip the
// response-time threshold and re-activate the very capacity the fault took
// away.
func (v *VMC) applyElasticity(eng *simclock.Engine, meanResp float64) {
	if v.targetForced {
		return
	}
	if meanResp > v.cfg.ResponseTimeThreshold {
		v.targetActive++
		if !v.activateStandby(eng) && v.region.CanProvision() {
			added := v.region.Provision(1)
			for _, vm := range added {
				v.hookVM(eng, vm)
				if vm.Activate(v.engineForVM(eng, vm)) {
					v.stats.Activations++
				}
				v.stats.ProvisionedVMs++
			}
		}
		return
	}
	if v.cfg.ScaleDownRMTTF > 0 && v.rmttf.Value() > v.cfg.ScaleDownRMTTF {
		v.elastActive = v.region.AppendByState(v.elastActive[:0], cloudsim.StateActive)
		active := v.elastActive
		if len(active) > v.cfg.MinActive {
			// Deactivate the healthiest VM: it has the most anomaly budget
			// left, so parking it wastes the least remaining lifetime.
			best := active[0]
			for _, vm := range active[1:] {
				if vm.HealthFraction() > best.HealthFraction() {
					best = vm
				}
			}
			if best.Deactivate() {
				if v.targetActive > v.cfg.MinActive {
					v.targetActive--
				}
			}
		}
	}
}

// activateStandby promotes one STANDBY VM to ACTIVE, returning whether a VM
// was promoted.  The standby is taken from the shard with the fewest ACTIVE
// VMs (ties broken by shard index): Submit's rotation keeps sending every
// shard ~1/N of the region's traffic, so replenishing the most depleted shard
// first stops a rejuvenation wave from concentrating load on that shard's
// survivors.  With one shard this is exactly the whole-pool promotion in
// provisioning order.
func (v *VMC) activateStandby(eng *simclock.Engine) bool {
	var best *cloudsim.VM
	bestActive := 0
	for s, n := 0, v.region.NumShards(); s < n; s++ {
		cand, active := v.region.StandbyPromotionCandidate(s)
		if cand == nil {
			continue
		}
		if best == nil || active < bestActive {
			best, bestActive = cand, active
		}
	}
	if best == nil {
		return false
	}
	if best.Activate(v.engineForVM(eng, best)) {
		v.stats.Activations++
		return true
	}
	return false
}

// RMTTF returns the smoothed Region Mean Time To Failure computed from the
// most recent predictions — the lastRMTTF_i value the VMC periodically sends
// to the leader VMC.
func (v *VMC) RMTTF() float64 { return v.rmttf.Value() }

// ActiveVMs returns the number of currently ACTIVE VMs in the region.
func (v *VMC) ActiveVMs() int { return v.region.ActiveCount() }
