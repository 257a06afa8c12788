package core

import (
	"fmt"
	"math"
	"strings"
)

// ForwardPlan is the global forward plan of Section V: given that users
// arbitrarily connect to whichever cloud region (the entry shares), the plan
// establishes, for the load balancer of each region, which fraction of the
// requests it receives must be processed locally and which fractions must be
// forwarded to the load balancers of the other regions, so that overall each
// region i ends up processing the fraction f_i decided by the policy.
type ForwardPlan struct {
	// Regions names the regions, indexing the matrix.
	Regions []string
	// EntryShares[i] is the fraction of the global incoming requests that
	// arrive at region i's load balancer (decided by the users, not by ACM).
	EntryShares []float64
	// TargetFractions[j] is the fraction of the global workload region j must
	// process (decided by the policy).
	TargetFractions []float64
	// Forward[i][j] is the fraction of the requests arriving at region i's
	// load balancer that must be forwarded to region j (j == i means "process
	// locally").  Every row sums to 1.
	Forward [][]float64
}

// BuildForwardPlan computes the forwarding matrix.  It keeps as much traffic
// local as possible: each region first retains min(entry_i, f_i) of the
// global load, and only the surplus of over-subscribed entry points is
// forwarded, split across the regions that still have processing headroom in
// proportion to their remaining deficit.  Entry shares and target fractions
// are normalised defensively before use.
func BuildForwardPlan(regions []string, entryShares, targetFractions []float64) (*ForwardPlan, error) {
	n := len(regions)
	if n == 0 {
		return nil, fmt.Errorf("core: forward plan with no regions")
	}
	if len(entryShares) != n || len(targetFractions) != n {
		return nil, fmt.Errorf("core: forward plan slice lengths mismatch (regions=%d entry=%d target=%d)",
			n, len(entryShares), len(targetFractions))
	}
	entry := Normalize(entryShares)
	target := Normalize(targetFractions)

	forward := make([][]float64, n)
	for i := range forward {
		forward[i] = make([]float64, n)
	}

	// Local retention and per-region surplus/deficit (in units of global
	// load fraction).
	surplus := make([]float64, n) // entry load that cannot be processed locally
	deficit := make([]float64, n) // processing capacity not covered by local entry
	for i := 0; i < n; i++ {
		local := math.Min(entry[i], target[i])
		surplus[i] = entry[i] - local
		deficit[i] = target[i] - local
		if entry[i] > 0 {
			forward[i][i] = local / entry[i]
		} else {
			forward[i][i] = 1 // no traffic enters here; the row is irrelevant but must sum to 1
		}
	}
	totalDeficit := 0.0
	for _, d := range deficit {
		totalDeficit += d
	}

	if totalDeficit > 1e-12 {
		for i := 0; i < n; i++ {
			if surplus[i] <= 1e-15 || entry[i] <= 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || deficit[j] <= 0 {
					continue
				}
				// Share of region i's surplus routed to region j.
				forward[i][j] = surplus[i] * (deficit[j] / totalDeficit) / entry[i]
			}
		}
	}

	// Defensive renormalisation of each row (floating point dust).
	for i := range forward {
		forward[i] = Normalize(forward[i])
	}
	return &ForwardPlan{
		Regions:         append([]string(nil), regions...),
		EntryShares:     entry,
		TargetFractions: target,
		Forward:         forward,
	}, nil
}

// DestinationIndex picks the target region for one request entering at
// region index row, using u — a uniform random value in [0,1) supplied by the
// caller — to sample the row's distribution.  It returns the target's index
// into Regions.  Load balancers know their own region's index, so the
// per-request path compares no names.
func (p *ForwardPlan) DestinationIndex(row int, u float64) int {
	acc := 0.0
	for j, frac := range p.Forward[row] {
		acc += frac
		if u < acc {
			return j
		}
	}
	return len(p.Regions) - 1
}

// CrossRegionFraction returns the fraction of the global load that the plan
// forwards to a region different from its entry region — the redirection
// overhead the paper associates with oscillating policies.
func (p *ForwardPlan) CrossRegionFraction() float64 {
	total := 0.0
	for i := range p.Regions {
		for j := range p.Regions {
			if i != j {
				total += p.EntryShares[i] * p.Forward[i][j]
			}
		}
	}
	return total
}

// String renders the plan as a small matrix table.
func (p *ForwardPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "entry\\to")
	for _, r := range p.Regions {
		fmt.Fprintf(&b, " %10s", r)
	}
	b.WriteByte('\n')
	for i, r := range p.Regions {
		fmt.Fprintf(&b, "%-10s", r)
		for j := range p.Regions {
			fmt.Fprintf(&b, " %10.3f", p.Forward[i][j])
		}
		fmt.Fprintf(&b, "   (entry %.3f -> target %.3f)\n", p.EntryShares[i], p.TargetFractions[i])
	}
	return b.String()
}
