package features

// Project returns a copy of the dataset restricted to the given feature
// subset.
func (d *Dataset) Project(feats []Name) *Dataset {
	out := NewDataset(feats)
	out.Samples = d.Samples
	return out
}
