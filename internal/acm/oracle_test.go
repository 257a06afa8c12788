package acm

import (
	"math"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// machineRepairman returns the exact throughput (req/s) and mean response
// time (s) of n closed-loop clients with exponential think time z in front
// of one FCFS server with exponential service time s (the M/M/1//N model),
// by exact mean value analysis.
func machineRepairman(n int, s, z float64) (x, r float64) {
	q := 0.0
	for k := 1; k <= n; k++ {
		r = s * (1 + q)
		x = float64(k) / (r + z)
		q = x * r
	}
	return x, r
}

// oneVMConfig is a single region holding one anomaly-free 1-vCPU VM whose
// SLA failure clause is off, driven by n browsers of a single-class mix: the
// M/M/1//N machine-repairman model.  The anomaly probabilities are zero but
// the sizes are not, so the region keeps the profile instead of defaulting.
func oneVMConfig(seed uint64, n int) Config {
	return Config{
		Seed: seed,
		Regions: []RegionSetup{{
			Region: cloudsim.RegionConfig{
				Name:          "solo",
				Type:          cloudsim.M3Medium,
				InitialActive: 1,
				Anomalies:     cloudsim.AnomalyProfile{LeakSizeMB: 1.5, ThreadStackMB: 0.5},
				Failure:       cloudsim.FailurePoint{MemoryFraction: 0.7, ThreadFraction: 0.8},
			},
			Clients: n,
			Mix: workload.Mix{Name: "single", Entries: []workload.Interaction{
				{Name: "home", Weight: 1, ServiceFactor: 1},
			}},
		}},
		VMC:       pcam.Config{ElasticityEnabled: false},
		ThinkTime: 7 * simclock.Second,
	}
}

// TestOneVMMatchesMachineRepairman checks the request path end to end
// against a closed-form answer: one VM serving N closed-loop browsers must
// reproduce the exact M/M/1//N throughput and mean response time, below, at
// and above the knee N* = (S+Z)/S = 176.  Each seed is measured over one
// simulated hour after a 5-minute warm-up; the 10-seed means must lie
// within 1% (throughput) and 5% (response time) of the model.
func TestOneVMMatchesMachineRepairman(t *testing.T) {
	if testing.Short() {
		t.Skip("runs thirty simulated hours")
	}
	const (
		think   = 7.0
		service = 0.040 // M3Medium.BaseServiceMs
		seeds   = 10
		warm    = 5 * simclock.Minute
		window  = simclock.Hour
	)
	// VM.sampleServiceTime floors the exponential demand X at a = 5% of its
	// mean S, so the served mean is E[max(X, a)] = a + S e^(-a/S).
	served := service * (0.05 + math.Exp(-0.05))
	for _, n := range []int{50, 176, 300} {
		wantX, wantR := machineRepairman(n, served, think)
		var sumX, sumR float64
		for seed := uint64(1); seed <= seeds; seed++ {
			m, err := NewManager(oneVMConfig(seed, n))
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			if err := m.el.se.Run(warm); err != nil && err != simclock.ErrHorizonReached {
				t.Fatal(err)
			}
			before := m.Metrics()
			if err := m.el.se.Run(warm + window); err != nil && err != simclock.ErrHorizonReached {
				t.Fatal(err)
			}
			after := m.Metrics()
			m.Stop()
			if d := after.Dropped(""); d != 0 {
				t.Fatalf("N=%d seed %d: %d requests dropped", n, seed, d)
			}
			if vs := m.VMCStats()["solo"]; vs.ProactiveRejuvenations+vs.ReactiveRecoveries != 0 {
				t.Fatalf("N=%d seed %d: the anomaly-free VM was rejuvenated: %+v", n, seed, vs)
			}
			samples := float64(after.ResponseSamples("") - before.ResponseSamples(""))
			total := after.MeanResponseTime("")*float64(after.ResponseSamples("")) -
				before.MeanResponseTime("")*float64(before.ResponseSamples(""))
			x := float64(after.Completed("")-before.Completed("")) / window.Seconds()
			r := total / samples
			t.Logf("N=%d seed %d: X=%.4f/s R=%.4fs", n, seed, x, r)
			sumX += x
			sumR += r
		}
		gotX, gotR := sumX/seeds, sumR/seeds
		errX, errR := gotX/wantX-1, gotR/wantR-1
		t.Logf("N=%d: X=%.4f/s (model %.4f, %+.2f%%) R=%.4fs (model %.4f, %+.2f%%)",
			n, gotX, wantX, 100*errX, gotR, wantR, 100*errR)
		if math.Abs(errX) > 0.01 {
			t.Errorf("N=%d: throughput %.4f/s is %+.2f%% off the M/M/1//N %.4f/s", n, gotX, 100*errX, wantX)
		}
		if math.Abs(errR) > 0.05 {
			t.Errorf("N=%d: mean response %.4fs is %+.2f%% off the M/M/1//N %.4fs", n, gotR, 100*errR, wantR)
		}
	}
}
