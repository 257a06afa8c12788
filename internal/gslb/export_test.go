package gslb

// States returns the current health state of every region, in deployment
// order.
func (d *Director) States() []HealthState {
	out := make([]HealthState, len(d.health))
	for i := range d.health {
		out[i] = d.health[i].State
	}
	return out
}
