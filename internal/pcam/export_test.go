package pcam

import "repro/internal/simclock"

// DefaultConfig returns a VMC configuration for the standalone controller
// tests: proactive rejuvenation when the predicted RTTF drops below 10
// minutes, a 30-second control interval and the 1-second response-time SLA.
func DefaultConfig() Config {
	return Config{
		RTTFThreshold:         600,
		ControlInterval:       30 * simclock.Second,
		ResponseTimeThreshold: 1.0,
		MinActive:             2,
		ElasticityEnabled:     true,
		RMTTFBeta:             0.5,
	}
}

// PredictedRTTF returns the last predicted RTTF for the given VM (0 when the
// VM has not been evaluated yet or is not in the region).
func (v *VMC) PredictedRTTF(vmID string) float64 {
	for _, vm := range v.region.VMs() {
		if vm.ID() == vmID && vm.Index() < len(v.predicted) {
			return v.predicted[vm.Index()]
		}
	}
	return 0
}
