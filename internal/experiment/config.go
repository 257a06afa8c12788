package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Scenario (de)serialisation: scenarios are plain data, so they round-trip
// through JSON.  This lets cmd/acmsim run deployments described in a file and
// lets users keep the exact configuration of an experiment next to its
// results.

// SaveScenario writes the scenario as indented JSON.
func SaveScenario(w io.Writer, sc Scenario) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		return fmt.Errorf("experiment: encoding scenario %q: %w", sc.Name, err)
	}
	return nil
}

// LoadScenario reads a scenario from JSON and applies the experiment
// defaults to any field left unset.  A scenario file carries one key per
// acm.Config field except Policy and Overlay, plus Name, Horizon,
// TailFraction, ConvergenceTolerance and Backend.  A Beta outside (0, 1] is
// rejected rather than reset; 0 means unset.  A Backend other than "" or
// "sim" is rejected with ErrUnknownBackend.
func LoadScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("experiment: decoding scenario: %w", err)
	}
	if len(sc.Regions) == 0 {
		return Scenario{}, fmt.Errorf("experiment: scenario %q has no regions", sc.Name)
	}
	for i, rs := range sc.Regions {
		if rs.Region.Name == "" {
			return Scenario{}, fmt.Errorf("experiment: scenario %q region %d has no name", sc.Name, i)
		}
		if rs.Region.Type.Name == "" {
			return Scenario{}, fmt.Errorf("experiment: scenario %q region %q has no instance type", sc.Name, rs.Region.Name)
		}
	}
	if sc.Beta != 0 {
		if err := ValidateBeta(sc.Beta); err != nil {
			return Scenario{}, fmt.Errorf("%w in scenario %q", err, sc.Name)
		}
	}
	if err := sc.checkBackend(); err != nil {
		return Scenario{}, err
	}
	return sc.withDefaults(), nil
}

// SaveScenarioFile writes the scenario to a JSON file.
func SaveScenarioFile(path string, sc Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return SaveScenario(f, sc)
}

// LoadScenarioFile reads a scenario from a JSON file.
func LoadScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	return LoadScenario(f)
}
