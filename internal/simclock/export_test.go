package simclock

// PrefixSums exposes a prepared table's prefix sums to the external tests.
func (w Weights) PrefixSums() []float64 { return w.cum }
