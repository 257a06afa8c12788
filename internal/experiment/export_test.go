package experiment

import "repro/internal/acm"

// NewManager is NewBackend unwrapped to the simulator, so the equivalence
// and determinism suites can keep scheduling through the engine.
func NewManager(sc Scenario, np NamedPolicy) (*acm.Manager, error) {
	sim, err := newSimulated(sc, np)
	if err != nil {
		return nil, err
	}
	return sim.Manager(), nil
}

// registerTestScenario is RegisterScenario for test fixtures: the scenario is
// buildable and sweepable like any other but stays out of the documented
// catalogue (ScenariosMarkdown).
func registerTestScenario(name, description string, ctor Constructor) {
	registerScenario(name, description, ctor, true)
}
