// Package workload generates the client traffic used by the paper's
// evaluation: a TPC-W-like multi-tier e-commerce workload produced by
// emulated web browsers.  Each browser runs a closed-loop session — issue an
// interaction, wait for the response, think, repeat — against the load
// balancer of the cloud region it is connected to, exactly as the TPC-W
// specification prescribes for remote browser emulators.
//
// The paper modifies the TPC-W implementation so that serving a request can
// inject software anomalies into the VM; that part lives in cloudsim (the VM
// injects anomalies when completing a request).  This package is responsible
// for the request mix, the think times, and the per-region client populations
// (the paper varies the number of clients per region in [16, 512] and makes
// sure the populations differ significantly between regions).
package workload

import (
	"fmt"

	"repro/internal/simclock"
	"repro/internal/validate"
)

// Interaction is one TPC-W web interaction class.
type Interaction struct {
	// Name is the TPC-W interaction name, e.g. "home" or "best_sellers".
	Name string
	// Weight is the relative frequency of the interaction in a mix.
	Weight float64 `domain:">=0"`
	// ServiceFactor scales the base service demand of a VM for this
	// interaction: database-heavy interactions (best sellers, searches,
	// admin confirm) cost several times a plain home-page hit.
	ServiceFactor float64 `domain:">0"`
}

// The 14 TPC-W web interactions with service-demand factors reflecting how
// database-heavy each interaction is in the Java servlet implementation used
// by the paper.
var interactions = []Interaction{
	{Name: "home", ServiceFactor: 1.0},
	{Name: "new_products", ServiceFactor: 2.2},
	{Name: "best_sellers", ServiceFactor: 3.0},
	{Name: "product_detail", ServiceFactor: 1.2},
	{Name: "search_request", ServiceFactor: 0.8},
	{Name: "search_results", ServiceFactor: 2.5},
	{Name: "shopping_cart", ServiceFactor: 1.5},
	{Name: "customer_registration", ServiceFactor: 0.9},
	{Name: "buy_request", ServiceFactor: 1.8},
	{Name: "buy_confirm", ServiceFactor: 2.8},
	{Name: "order_inquiry", ServiceFactor: 0.7},
	{Name: "order_display", ServiceFactor: 1.6},
	{Name: "admin_request", ServiceFactor: 1.1},
	{Name: "admin_confirm", ServiceFactor: 3.2},
}

// Mix is a probability distribution over the TPC-W interactions.
type Mix struct {
	// Name labels the mix ("browsing", "shopping", "ordering").
	Name string
	// Entries holds the interactions with their weights (normalised lazily).
	Entries []Interaction
}

// mixFromWeights builds a Mix from per-interaction weights keyed by name.
// Interactions absent from the map get weight zero.
func mixFromWeights(name string, weights map[string]float64) Mix {
	m := Mix{Name: name}
	for _, it := range interactions {
		it.Weight = weights[it.Name]
		m.Entries = append(m.Entries, it)
	}
	return m
}

// BrowsingMix returns the TPC-W browsing mix (WIPSb): 95% browse / 5% order
// interactions.  This is the mix used for the kind of read-dominated
// e-commerce front end the paper's evaluation exercises.
func BrowsingMix() Mix {
	return mixFromWeights("browsing", map[string]float64{
		"home":                  29.00,
		"new_products":          11.00,
		"best_sellers":          11.00,
		"product_detail":        21.00,
		"search_request":        12.00,
		"search_results":        11.00,
		"shopping_cart":         2.00,
		"customer_registration": 0.82,
		"buy_request":           0.75,
		"buy_confirm":           0.69,
		"order_inquiry":         0.30,
		"order_display":         0.25,
		"admin_request":         0.10,
		"admin_confirm":         0.09,
	})
}

// ShoppingMix returns the TPC-W shopping mix (WIPS): 80% browse / 20% order.
func ShoppingMix() Mix {
	return mixFromWeights("shopping", map[string]float64{
		"home":                  16.00,
		"new_products":          5.00,
		"best_sellers":          5.00,
		"product_detail":        17.00,
		"search_request":        20.00,
		"search_results":        17.00,
		"shopping_cart":         11.60,
		"customer_registration": 3.00,
		"buy_request":           2.60,
		"buy_confirm":           1.20,
		"order_inquiry":         0.75,
		"order_display":         0.66,
		"admin_request":         0.10,
		"admin_confirm":         0.09,
	})
}

// OrderingMix returns the TPC-W ordering mix (WIPSo): 50% browse / 50% order.
func OrderingMix() Mix {
	return mixFromWeights("ordering", map[string]float64{
		"home":                  9.12,
		"new_products":          0.46,
		"best_sellers":          0.46,
		"product_detail":        12.35,
		"search_request":        14.53,
		"search_results":        13.08,
		"shopping_cart":         13.53,
		"customer_registration": 12.86,
		"buy_request":           12.73,
		"buy_confirm":           10.18,
		"order_inquiry":         0.25,
		"order_display":         0.22,
		"admin_request":         0.12,
		"admin_confirm":         0.11,
	})
}

// Picker draws interactions from a Mix through its cumulative weight table,
// built once, so a draw never re-sums the weights.  Client populations build
// one each and draw every interaction from it.
type Picker struct {
	entries []Interaction
	weights simclock.Weights
}

// Picker prepares the mix for drawing.  Later changes to the mix do not
// affect the picker.
func (m Mix) Picker() Picker {
	w := make([]float64, len(m.Entries))
	for i, e := range m.Entries {
		w[i] = e.Weight
	}
	return Picker{entries: append([]Interaction(nil), m.Entries...), weights: simclock.NewWeights(w)}
}

// Pick draws one interaction using the provided RNG: exactly one Float64, or
// one uniform Intn when no weight is positive.
func (p *Picker) Pick(rng *simclock.RNG) Interaction {
	return p.entries[p.weights.Pick(rng)]
}

// ValidateShape checks the structure a picker needs to draw from the mix:
// it is named and has entries, every entry is named, and at least one
// weight is positive.  The numeric leaves, each weight finite and
// non-negative and each service factor positive and finite, carry domain
// tags that validate.Struct checks on the config holding the mix, so this
// does not walk them again.
func (m Mix) ValidateShape() error {
	if m.Name == "" {
		return validate.Fieldf("workload", "Mix.Name", "is empty")
	}
	if len(m.Entries) == 0 {
		return validate.Fieldf("workload", "Mix.Entries", "of mix %q is empty", m.Name)
	}
	positive := false
	for i, e := range m.Entries {
		if e.Name == "" {
			return validate.Fieldf("workload", fmt.Sprintf("Mix.Entries[%d].Name", i), "of mix %q is empty", m.Name)
		}
		positive = positive || e.Weight > 0
	}
	if !positive {
		return validate.Fieldf("workload", "Mix.Entries", "of mix %q has no positive weight", m.Name)
	}
	return nil
}
