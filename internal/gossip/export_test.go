package gossip

import "repro/internal/gslb"

// ReplicaStates returns replica i's (possibly stale) view of every region's
// health state, in deployment order.
func (p *Plane) ReplicaStates(i int) []gslb.HealthState {
	out := make([]gslb.HealthState, len(p.reps[i].view))
	for r := range out {
		out[r] = p.reps[i].view[r].State
	}
	return out
}
