package experiment

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/simclock"
)

// The scenario registry maps names to parameterised scenario constructors so
// that sweeps, CLIs and config files can refer to deployments by name instead
// of rebuilding region lists by hand.  The paper's scenarios are registered at
// package initialisation; callers (tests, future workloads, alternative
// backends) can register their own.

// Constructor builds a scenario from a seed.  Constructors must be pure: the
// returned scenario may share no mutable state with any other scenario, since
// the parallel runner builds managers from them concurrently.
type Constructor func(seed uint64) Scenario

// registry is guarded by a mutex so tests and init-time registration from
// multiple packages stay race-free.
var (
	registryMu sync.RWMutex
	registry   = map[string]registered{}
)

type registered struct {
	ctor Constructor
	desc string
	// test marks scenarios registered by test files; they behave like any
	// other registration but are excluded from the generated documentation,
	// so running the docs generator inside a test binary yields the same
	// catalogue as running it from the CLI.
	test bool
}

// RegisterScenario adds a named scenario constructor to the registry.  It
// panics on a duplicate or empty name — registration is a program-structure
// error, not a runtime condition.
func RegisterScenario(name, description string, ctor Constructor) {
	registerScenario(name, description, ctor, false)
}

func registerScenario(name, description string, ctor Constructor, test bool) {
	if name == "" || ctor == nil {
		panic("experiment: RegisterScenario needs a name and a constructor")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiment: scenario %q registered twice", name))
	}
	registry[name] = registered{ctor: ctor, desc: description, test: test}
}

// BuildScenario constructs the named scenario with the given seed and fills
// its defaults; the registered constructors leave the fill to it.
func BuildScenario(name string, seed uint64) (Scenario, error) {
	registryMu.RLock()
	reg, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("experiment: unknown scenario %q (known: %v)", name, ScenarioNames())
	}
	return reg.ctor(seed).withDefaults(), nil
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// documentedScenarioNames returns the registered non-test scenario names,
// sorted — the set the generated scenario catalogue covers.
func documentedScenarioNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n, reg := range registry {
		if !reg.test {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ScenarioDescription returns the registered description of a scenario name
// (empty for unknown names).
func ScenarioDescription(name string) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name].desc
}

func init() {
	RegisterScenario("figure3", "two heterogeneous regions (Ireland + Munich), Section VI-B first experiment", Figure3Scenario)
	RegisterScenario("figure4", "three heterogeneous regions (Ireland + Frankfurt + Munich), Section VI-B second experiment", Figure4Scenario)
	RegisterScenario("homogeneous", "three identical regions and populations, the environment suited to Policy 1", HomogeneousScenario)
	RegisterScenario("elasticity", "under-provisioned region absorbing a 3x client surge via ADDVMS", ElasticityScenario)
	RegisterScenario("megaregion", "one region with a 5x10^3-VM pool on a single engine shard (baseline)", MegaregionScenario)
	RegisterScenario("megaregion-eventloop", "the 16-shard megaregion with the event loop itself fanned out: one sub-engine per shard, cross-shard mailboxes", MegaregionEventLoopScenario)
	RegisterScenario("figure4-eventloop", "figure4 with 3-shard regions on the parallel event loop (cross-region forwarding through mailboxes)", Figure4EventLoopScenario)
	RegisterScenario("global-failover", "global clients on the director's failover policy; a scripted outage drains region1, traffic fails over and back", GlobalFailoverScenario)
	RegisterScenario("global-leastload", "global clients routed by probed region capacity (least-load policy re-weighted every 15 s)", GlobalLeastLoadScenario)
	RegisterScenario("global-diurnal", "inhomogeneous-Poisson diurnal streams peaking per-region a third of a cycle apart, plus static-weight global clients", GlobalDiurnalScenario)
	RegisterScenario("global-latency", "globally attached streams routed by learned per-(stream, region) RTT (capacity over squared EWMA latency)", GlobalLatencyScenario)
	RegisterScenario("global-cablecut", "global-latency plus a mid-run cable cut doubling the americas-to-region1 RTT; the director learns the shift passively", GlobalCableCutScenario)
	RegisterScenario("global-traced", "global-latency on 2-shard regions with 2% request tracing and the engine flight recorder (Chrome-trace export golden)", GlobalTracedScenario)
	RegisterScenario("global-gossip", "three gossip director replicas converging on region health through 10 s push-pull rounds while staggered outages churn the views", GlobalGossipScenario)
	RegisterScenario("global-partition", "split-brain: a partitioned replica keeps routing its lanes to a blacked-out region until the partition heals", GlobalPartitionScenario)
	RegisterScenario("global-staleview", "slow lossy gossip leaves two replicas overloading a shrunken region on stale healthy views", GlobalStaleViewScenario)
	RegisterScenario("megaclients", "10^6 cohort-compressed clients on the 16-shard megaregion (1% tracers feed the latency series)", MegaclientsScenario)
	RegisterScenario("global-megaclients", "1.2x10^6 cohort-compressed clients routed by the director's least-load policy over three 10^3-VM regions", GlobalMegaclientsScenario)
}

// Matrix describes a sweep grid over registered scenarios, policies, smoothing
// factors and replications.  Expand turns it into independent jobs for the
// parallel runner, with every job's seed derived deterministically from
// (BaseSeed, replication index) — so one replication runs every cell of the
// grid on the same stream (paired comparisons across policies and betas), and
// different replications land on independent streams.
type Matrix struct {
	// Scenarios names registered scenarios ("figure3", "figure4", ...).
	Scenarios []string
	// Policies lists policy keys resolvable by PolicyByKey.  Empty selects
	// the paper's three policies.
	Policies []string
	// Betas optionally overrides the scenarios' smoothing factor; empty keeps
	// each scenario's own beta.
	Betas []float64
	// Replications is the number of independent seed streams per grid cell
	// (1 when zero or negative).
	Replications int
	// BaseSeed is the root of all derived seeds.
	BaseSeed uint64
	// Horizon optionally overrides the scenarios' horizon.
	Horizon simclock.Duration
}

// Expand materialises the grid into jobs, ordered scenario-major, then beta,
// then policy, then replication.  The expansion is a pure function of the
// matrix: expanding twice yields identical jobs, which together with the
// deterministic seed derivation makes sweep results independent of scheduling.
func (m Matrix) Expand() ([]Job, error) {
	if len(m.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: matrix has no scenarios")
	}
	reps := m.Replications
	if reps <= 0 {
		reps = 1
	}

	var policies []NamedPolicy
	if len(m.Policies) == 0 {
		policies = Policies()
	} else {
		for _, key := range m.Policies {
			np, err := PolicyByKey(key)
			if err != nil {
				return nil, err
			}
			policies = append(policies, np)
		}
	}

	betas := m.Betas
	overrideBeta := len(betas) > 0
	for _, beta := range betas {
		if err := ValidateBeta(beta); err != nil {
			return nil, err
		}
	}
	if !overrideBeta {
		betas = []float64{0} // placeholder: keep each scenario's own beta
	}

	var jobs []Job
	for _, name := range m.Scenarios {
		for _, beta := range betas {
			for _, np := range policies {
				for rep := 0; rep < reps; rep++ {
					seed := simclock.DeriveSeed(m.BaseSeed, uint64(rep))
					sc, err := BuildScenario(name, seed)
					if err != nil {
						return nil, err
					}
					if m.Horizon > 0 {
						sc.Horizon = m.Horizon
					}
					if overrideBeta {
						sc.Beta = beta
						sc.Name = fmt.Sprintf("%s-beta%.2f", sc.Name, beta)
					}
					if reps > 1 {
						sc.Name = fmt.Sprintf("%s-rep%d", sc.Name, rep)
					}
					jobs = append(jobs, Job{Index: len(jobs), Scenario: sc, Policy: np, Rep: rep})
				}
			}
		}
	}
	return jobs, nil
}
