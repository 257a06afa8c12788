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

// oneVMConfig is a single region holding one anomaly-free M3Medium VM whose
// SLA failure clause is off, driven by n browsers of a single-class mix: with
// its one vCPU, the M/M/1//N machine-repairman model.  The anomaly probabilities are zero but
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

// finiteSourceMMc returns the exact throughput (req/s) and mean response
// time (s) of n closed-loop clients with exponential think time z in front
// of c parallel FCFS servers with exponential service time s (the M/M/c//N
// model), from the birth-death chain over the number k of clients at the
// station: births at (n-k)/z, deaths at min(k, c)/s.  The stationary weights
// are formed and summed in log space; load-dependent MVA is not used because
// its recursion for the idle probability cancels catastrophically near the
// knee and goes negative there.
func finiteSourceMMc(n, c int, s, z float64) (x, r float64) {
	logp := make([]float64, n+1)
	top := 0.0
	for k := 1; k <= n; k++ {
		logp[k] = logp[k-1] + math.Log(float64(n-k+1)/z) - math.Log(float64(min(k, c))/s)
		top = max(top, logp[k])
	}
	var sum, busy, present float64
	for k, lp := range logp {
		p := math.Exp(lp - top)
		sum += p
		busy += p * float64(min(k, c))
		present += p * float64(k)
	}
	x = busy / sum / s
	return x, present / sum / x
}

// Shared set-up of the closed-form oracles: the think time and the served
// mean of M3Medium's 40 ms demand.  VM.sampleServiceTime floors the
// exponential demand X at a = 5% of its mean S, so the served mean is
// E[max(X, a)] = a + S e^(-a/S).  Each seed is measured over one simulated
// hour after a 5-minute warm-up.
const (
	oracleThink  = 7.0
	oracleSeeds  = 10
	oracleWarm   = 5 * simclock.Minute
	oracleWindow = simclock.Hour
)

var oracleServed = 0.040 * (0.05 + math.Exp(-0.05))

// measureOneVM runs cfg, a deployment of one anomaly-free VM in front of n
// browsers, and returns its throughput and mean response time over the
// measurement window.
func measureOneVM(t *testing.T, cfg Config, n int) (x, r float64) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.el.se.Run(oracleWarm); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	before := m.Metrics()
	if err := m.el.se.Run(oracleWarm + oracleWindow); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	after := m.Metrics()
	m.Stop()
	if d := after.Dropped(""); d != 0 {
		t.Fatalf("N=%d seed %d: %d requests dropped", n, cfg.Seed, d)
	}
	if vs := m.VMCStats()["solo"]; vs.ProactiveRejuvenations+vs.ReactiveRecoveries != 0 {
		t.Fatalf("N=%d seed %d: the anomaly-free VM was rejuvenated: %+v", n, cfg.Seed, vs)
	}
	samples := float64(after.ResponseSamples("") - before.ResponseSamples(""))
	total := after.MeanResponseTime("")*float64(after.ResponseSamples("")) -
		before.MeanResponseTime("")*float64(before.ResponseSamples(""))
	x = float64(after.Completed("")-before.Completed("")) / oracleWindow.Seconds()
	r = total / samples
	t.Logf("N=%d seed %d: X=%.4f/s R=%.4fs", n, cfg.Seed, x, r)
	return x, r
}

// checkOracle compares the 10-seed means of the deployments cfg(seed) with
// the model's throughput and mean response time: within 1% and 5%.
func checkOracle(t *testing.T, model string, n int, wantX, wantR float64, cfg func(seed uint64) Config) {
	t.Helper()
	var sumX, sumR float64
	for seed := uint64(1); seed <= oracleSeeds; seed++ {
		x, r := measureOneVM(t, cfg(seed), n)
		sumX += x
		sumR += r
	}
	gotX, gotR := sumX/oracleSeeds, sumR/oracleSeeds
	errX, errR := gotX/wantX-1, gotR/wantR-1
	t.Logf("N=%d: X=%.4f/s (model %.4f, %+.2f%%) R=%.4fs (model %.4f, %+.2f%%)",
		n, gotX, wantX, 100*errX, gotR, wantR, 100*errR)
	if math.Abs(errX) > 0.01 {
		t.Errorf("N=%d: throughput %.4f/s is %+.2f%% off the %s %.4f/s", n, gotX, 100*errX, model, wantX)
	}
	if math.Abs(errR) > 0.05 {
		t.Errorf("N=%d: mean response %.4fs is %+.2f%% off the %s %.4fs", n, gotR, 100*errR, model, wantR)
	}
}

// TestOneVMMatchesMachineRepairman checks the request path end to end
// against a closed-form answer: one VM serving N closed-loop browsers must
// reproduce the exact M/M/1//N throughput and mean response time, below, at
// and above the knee N* = (S+Z)/S = 176.  The 10-seed means must lie within
// 1% (throughput) and 5% (response time) of the model.
func TestOneVMMatchesMachineRepairman(t *testing.T) {
	if testing.Short() {
		t.Skip("runs thirty simulated hours")
	}
	for _, n := range []int{50, 176, 300} {
		wantX, wantR := machineRepairman(n, oracleServed, oracleThink)
		checkOracle(t, "M/M/1//N", n, wantX, wantR, func(seed uint64) Config { return oneVMConfig(seed, n) })
	}
}

// TestMultiCoreVMMatchesMachineRepairman is the multi-server oracle: one
// anomaly-free 4-vCPU VM, set up and measured like
// TestOneVMMatchesMachineRepairman's, must reproduce the exact M/M/4//N
// throughput and mean response time below, at and above the knee
// N* = c(S+Z)/S = 704, within 1% and 5%.  At c = 1 the model must agree with
// the single-server mean value analysis.
func TestMultiCoreVMMatchesMachineRepairman(t *testing.T) {
	if testing.Short() {
		t.Skip("runs thirty simulated hours")
	}
	const vcpus = 4
	for _, n := range []int{1, 176, 300} {
		x1, r1 := finiteSourceMMc(n, 1, oracleServed, oracleThink)
		x, r := machineRepairman(n, oracleServed, oracleThink)
		if math.Abs(x1/x-1) > 1e-9 || math.Abs(r1/r-1) > 1e-9 {
			t.Fatalf("N=%d: M/M/1//N from the chain (%v, %v) differs from MVA (%v, %v)", n, x1, r1, x, r)
		}
	}
	quad := cloudsim.M3Medium
	quad.Name, quad.VCPUs = "m3.medium-x4", vcpus
	for _, n := range []int{300, 704, 900} {
		wantX, wantR := finiteSourceMMc(n, vcpus, oracleServed, oracleThink)
		checkOracle(t, "M/M/4//N", n, wantX, wantR, func(seed uint64) Config {
			cfg := oneVMConfig(seed, n)
			cfg.Regions[0].Region.Type = quad
			return cfg
		})
	}
}
