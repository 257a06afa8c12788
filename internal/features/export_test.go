package features

import "fmt"

// Set stores the value of the named feature.  It panics on a name outside the
// feature set: a fixed-slot vector has nowhere to keep it, and silently
// dropping a measurement would hide the bug.
func (v *Vector) Set(n Name, val float64) {
	i, ok := Index(n)
	if !ok {
		panic(fmt.Sprintf("features: unknown feature %q", n))
	}
	v.values[i] = val
}

// Project returns a copy of the dataset restricted to the given feature
// subset.
func (d *Dataset) Project(feats []Name) *Dataset {
	out := NewDataset(feats)
	out.Samples = d.Samples
	return out
}
