package acm

// CohortMaxBatches returns the batch cap of every cohort population the
// deployment runs, the regional ones first, then the director's.
func (m *Manager) CohortMaxBatches() []int {
	var out []int
	for _, cohorts := range m.el.cohorts {
		for _, c := range cohorts {
			out = append(out, c.MaxBatch())
		}
	}
	for _, c := range m.el.globalCohorts {
		out = append(out, c.MaxBatch())
	}
	return out
}
