package f2pm

import (
	"cmp"
	"fmt"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
	"repro/internal/validate"
	"repro/internal/workload"
)

// Collector is the feature monitor agent of F2PM: it periodically samples the
// system features of the VMs it is attached to and records the failure times
// it is told about, so that a labelled RTTF dataset can be built once enough
// failure episodes have been observed.
type Collector struct {
	interval simclock.Duration
	vms      []*cloudsim.VM
	vectors  []features.Vector
	failures map[string][]float64
	stop     func()
}

// NewCollector returns a collector that samples every interval, which must
// be positive (Start panics otherwise).
func NewCollector(interval simclock.Duration) *Collector {
	return &Collector{interval: interval, failures: map[string][]float64{}}
}

// Attach registers a VM for monitoring and chains its failure hook so that
// failure episodes are recorded for labelling.  Attach must be called before
// Start.
func (c *Collector) Attach(vm *cloudsim.VM) {
	c.vms = append(c.vms, vm)
	prev := vm.OnFailure
	vm.OnFailure = func(v *cloudsim.VM, at simclock.Time) {
		c.RecordFailure(v.ID(), at)
		if prev != nil {
			prev(v, at)
		}
	}
}

// RecordFailure notes that the named VM hit its failure point at the given
// time.  It is normally invoked through the hook installed by Attach, but can
// also be called directly when failure times come from another source.
func (c *Collector) RecordFailure(vmID string, at simclock.Time) {
	c.failures[vmID] = append(c.failures[vmID], at.Seconds())
}

// Start begins periodic sampling on the engine.  Sampling continues until
// Stop is called or the engine drains.
func (c *Collector) Start(eng *simclock.Engine) {
	if c.stop != nil {
		return
	}
	c.stop = eng.Ticker(c.interval, func(e *simclock.Engine) {
		for _, vm := range c.vms {
			if vm.State() == cloudsim.StateActive {
				c.vectors = append(c.vectors, vm.Sample(e.Now(), features.All))
			}
		}
	})
}

// Stop halts sampling.
func (c *Collector) Stop() {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
}

// Failures returns the number of failure episodes recorded so far.
func (c *Collector) Failures() int {
	n := 0
	for _, ts := range c.failures {
		n += len(ts)
	}
	return n
}

// BuildDataset labels the collected vectors with the observed failure times
// and returns the resulting dataset.  Vectors taken after the last observed
// failure of their VM are dropped because their RTTF is unknown.
func (c *Collector) BuildDataset() *features.Dataset {
	ds := features.NewDataset(nil)
	for _, s := range features.LabelRTTF(c.vectors, c.failures) {
		ds.Add(s)
	}
	return ds
}

// ProfileConfig configures a synthetic profiling run: a small pool of VMs is
// driven with an open-loop workload until enough failure episodes have been
// observed to train the prediction models.  This replaces the paper's initial
// profiling phase on the real testbed.  CollectSyntheticDataset takes it as
// given; WithDefaults fills its numeric zeros.
type ProfileConfig struct {
	// Seed is the deterministic RNG seed of the run.
	Seed uint64 `domain:">=0"`
	// Instance is the instance type profiled (the paper trains per-VM models;
	// one model per instance type is sufficient in the simulator because VMs
	// of a type are statistically identical).  It has no default: acm
	// profiles each region's own type.  CollectSyntheticDataset checks its
	// domains.
	Instance cloudsim.InstanceType `domain:"-"`
	// VMs is the number of VMs run in parallel (more VMs = more failure
	// episodes per simulated hour; WithDefaults fills 0 with 4).
	VMs int `domain:">0"`
	// RatePerVM is the open-loop request rate directed at each VM
	// (WithDefaults fills 0 with 6 req/s).
	RatePerVM float64 `domain:">0"`
	// SampleInterval is the feature sampling period (WithDefaults fills 0
	// with 30 s).
	SampleInterval simclock.Duration `domain:">0"`
	// TargetFailures stops the run once this many failure episodes have been
	// observed (WithDefaults fills 0 with 12).
	TargetFailures int `domain:">0"`
	// MaxHorizon bounds the run (WithDefaults fills 0 with 24 simulated
	// hours).
	MaxHorizon simclock.Duration `domain:">0"`
}

// WithDefaults returns the configuration with every numeric 0 filled.
// Applying it twice changes nothing.
func (c ProfileConfig) WithDefaults() ProfileConfig {
	c.VMs = cmp.Or(c.VMs, 4)
	c.RatePerVM = cmp.Or(c.RatePerVM, 6)
	c.SampleInterval = cmp.Or(c.SampleInterval, 30*simclock.Second)
	c.TargetFailures = cmp.Or(c.TargetFailures, 12)
	c.MaxHorizon = cmp.Or(c.MaxHorizon, 24*simclock.Hour)
	return c
}

// CollectSyntheticDataset runs the profiling phase in simulation and returns
// the labelled dataset.  VMs that fail are rejuvenated and reactivated so
// several failure episodes per VM are observed, which is what gives the
// dataset coverage of the whole anomaly-accumulation trajectory.
func CollectSyntheticDataset(cfg ProfileConfig) (*features.Dataset, error) {
	// One walk checks the numeric fields and the profiled instance type.
	checked := struct {
		ProfileConfig
		Instance cloudsim.InstanceType
	}{cfg, cfg.Instance}
	if err := validate.Struct("f2pm", &checked); err != nil {
		return nil, err
	}
	eng := simclock.NewEngine(cfg.Seed)
	collector := NewCollector(cfg.SampleInterval)

	region := cloudsim.NewRegion(cloudsim.RegionConfig{
		Name:          "profiling",
		Provider:      "sim",
		Location:      "lab",
		Type:          cfg.Instance,
		InitialActive: cfg.VMs,
	}.WithDefaults(), eng.RNG().Fork())

	failures := 0
	for _, vm := range region.ActiveVMs() {
		vm := vm
		collector.Attach(vm)
		prev := vm.OnFailure
		vm.OnFailure = func(v *cloudsim.VM, at simclock.Time) {
			if prev != nil {
				prev(v, at)
			}
			failures++
			if failures >= cfg.TargetFailures {
				eng.Stop()
				return
			}
			// Restart the failed VM so it produces another failure episode.
			v.RecoverFromFailure(eng)
		}
		prevRejuv := vm.OnRejuvenated
		vm.OnRejuvenated = func(v *cloudsim.VM, at simclock.Time) {
			if prevRejuv != nil {
				prevRejuv(v, at)
			}
			v.Activate(eng)
		}
	}

	metrics := workload.NewMetrics()
	for i, vm := range region.ActiveVMs() {
		vm := vm
		gen := workload.NewOpenLoop(workload.OpenLoopConfig{
			Region:     "profiling",
			RatePerSec: cfg.RatePerVM,
		}, simclock.NewRNG(cfg.Seed+uint64(i)*7919+1), workload.DispatcherFunc(
			func(e *simclock.Engine, req *cloudsim.Request) { vm.Dispatch(e, req) }), metrics)
		gen.Start(eng)
	}

	collector.Start(eng)
	if err := eng.Run(cfg.MaxHorizon); err != nil && err != simclock.ErrHorizonReached {
		return nil, fmt.Errorf("f2pm: profiling run: %w", err)
	}
	collector.Stop()

	ds := collector.BuildDataset()
	if ds.Len() == 0 {
		return nil, fmt.Errorf("f2pm: profiling run produced no labelled samples (failures observed: %d)", collector.Failures())
	}
	return ds, nil
}

// TrainFromProfile is a convenience that runs the synthetic profiling phase
// and then the training toolchain in one call.
func TrainFromProfile(pcfg ProfileConfig, tcfg Config) (*Model, *Report, error) {
	ds, err := CollectSyntheticDataset(pcfg)
	if err != nil {
		return nil, nil, err
	}
	return Train(ds, tcfg)
}
