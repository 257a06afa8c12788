package workload

import "repro/internal/simclock"

// NewBrowser creates a standalone browser outside any Population.
func NewBrowser(id string, cfg BrowserConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) *Browser {
	home := newBrowserHome(cfg, target, metrics)
	home.names = []string{id}
	return &Browser{home: home, rng: *rng}
}

// Interactions returns a copy of the 14 TPC-W interactions with zero weights.
func Interactions() []Interaction {
	out := make([]Interaction, len(interactions))
	copy(out, interactions)
	return out
}
