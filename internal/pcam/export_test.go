package pcam

import (
	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
)

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

// recordingPredictor wraps a predictor and keeps the last RTTF it returned
// for each VM: the predictions a VMC acted on.  The control tick calls it
// from one goroutine per region shard, so it keeps one map per shard and
// needs no lock (a VM never changes shard).
type recordingPredictor struct {
	RTTFPredictor
	byShard []map[string]float64
}

// recordPredictions wraps p for a VMC over region.
func recordPredictions(p RTTFPredictor, region *cloudsim.Region) *recordingPredictor {
	r := &recordingPredictor{RTTFPredictor: p, byShard: make([]map[string]float64, region.NumShards())}
	for s := range r.byShard {
		r.byShard[s] = map[string]float64{}
	}
	return r
}

func (r *recordingPredictor) PredictRTTF(vm *cloudsim.VM, sample features.Vector) float64 {
	rttf := r.RTTFPredictor.PredictRTTF(vm, sample)
	r.byShard[vm.ShardIndex()][vm.ID()] = rttf
	return rttf
}

// ReadsFeatures passes on the wrapped predictor's features, so the VMC
// measures what it would measure without the recorder.
func (r *recordingPredictor) ReadsFeatures() features.Mask { return readsFeatures(r.RTTFPredictor) }

// PredictedRTTF returns the last RTTF predicted for the VM (0 when it has
// never been evaluated or is not in the region).
func (r *recordingPredictor) PredictedRTTF(vmID string) float64 {
	for _, m := range r.byShard {
		if rttf, ok := m[vmID]; ok {
			return rttf
		}
	}
	return 0
}
