package experiment

import (
	"embed"
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/simclock"
)

// This file generates docs/SCENARIOS.md from the scenario registry, so the
// scenario catalogue can never drift from the code: the document is a pure
// function of the registered constructors and the golden files, `make docs`
// rewrites it, and TestScenariosDocCurrent fails the build when the committed
// copy is stale.

// goldenFS embeds the golden regression files so the generated catalogue can
// state, per scenario, exactly which byte-pinned goldens guard it.
//
//go:embed testdata/golden/*.json
var goldenFS embed.FS

// goldensByScenario maps each scenario name to its golden file names, derived
// from the testdata/golden layout (<scenario>-<policy>.json; policy keys
// contain no hyphen, so the last hyphen splits the two).
func goldensByScenario() map[string][]string {
	entries, err := goldenFS.ReadDir("testdata/golden")
	if err != nil {
		// The directory is embedded at compile time; failing to read it is a
		// build defect, not a runtime condition.
		panic(fmt.Sprintf("experiment: reading embedded goldens: %v", err))
	}
	out := map[string][]string{}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), path.Ext(e.Name()))
		cut := strings.LastIndex(name, "-")
		if cut <= 0 {
			continue
		}
		scenario := name[:cut]
		out[scenario] = append(out[scenario], e.Name())
	}
	for _, files := range out {
		sort.Strings(files)
	}
	return out
}

// docDuration renders a simclock duration compactly for the catalogue.
func docDuration(d simclock.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 3600 && s == float64(int(s/3600))*3600:
		return fmt.Sprintf("%.0f h", s/3600)
	case s >= 60 && s == float64(int(s/60))*60:
		return fmt.Sprintf("%.0f min", s/60)
	default:
		return fmt.Sprintf("%g s", s)
	}
}

// scenarioHighlights summarises the configuration knobs that make a scenario
// what it is — deployment shape, traffic sources, engine selection, director
// and gossip settings, fault schedules — as short markdown bullet fragments.
func scenarioHighlights(sc Scenario) []string {
	var hl []string

	names := sc.RegionNames()
	shards := 0
	for _, r := range sc.Regions {
		if r.Region.Shards > shards {
			shards = r.Region.Shards
		}
	}
	region := fmt.Sprintf("%d regions (%s)", len(names), strings.Join(names, ", "))
	if len(names) == 1 {
		region = fmt.Sprintf("1 region (%s)", names[0])
	}
	if shards > 1 {
		region += fmt.Sprintf(", up to %d engine shards", shards)
	}
	hl = append(hl, region)

	var traffic []string
	if n := sc.TotalClients(); n > 0 {
		traffic = append(traffic, fmt.Sprintf("%d pinned browsers", n))
	}
	if sc.GlobalClients > 0 {
		traffic = append(traffic, fmt.Sprintf("%d global browsers", sc.GlobalClients))
	}
	cohort := sc.CohortClients
	for _, r := range sc.Regions {
		cohort += r.CohortClients
	}
	if cohort > 0 {
		traffic = append(traffic, fmt.Sprintf("%d cohort-compressed clients", cohort))
	}
	if len(sc.Arrivals) > 0 {
		streams := make([]string, len(sc.Arrivals))
		for i, a := range sc.Arrivals {
			streams[i] = a.Name
		}
		traffic = append(traffic, fmt.Sprintf("arrival streams %s", strings.Join(streams, ", ")))
	}
	if len(traffic) > 0 {
		hl = append(hl, strings.Join(traffic, " + "))
	}

	hl = append(hl, fmt.Sprintf("horizon %s, control interval %s",
		docDuration(sc.Horizon), docDuration(sc.ControlInterval)))

	if sc.EventWorkers > 1 {
		hl = append(hl, fmt.Sprintf("sharded event loop, %d workers", sc.EventWorkers))
	}
	if sc.GSLB.Enabled() {
		g := fmt.Sprintf("GSLB policy `%s`", sc.GSLB.Policy)
		if len(sc.GSLB.Preference) > 0 {
			g += fmt.Sprintf(" (preference %s)", strings.Join(sc.GSLB.Preference, " > "))
		}
		if len(sc.GSLB.RTT) > 0 {
			g += fmt.Sprintf(", %d-stream RTT matrix", len(sc.GSLB.RTT))
		}
		hl = append(hl, g)
	}
	if sc.GossipReplicas > 1 { // one replica is the central director
		g := fmt.Sprintf("%d gossip replicas, %s rounds", sc.GossipReplicas, docDuration(sc.GossipInterval))
		if sc.GossipLoss > 0 {
			g += fmt.Sprintf(", %.0f%% message loss", 100*sc.GossipLoss)
		}
		if sc.GossipDelay > 0 {
			g += fmt.Sprintf(", %s link delay", docDuration(sc.GossipDelay))
		}
		hl = append(hl, g)
	}

	var faults []string
	if n := len(sc.Faults); n > 0 {
		faults = append(faults, fmt.Sprintf("%d region outage(s)", n))
	}
	if n := len(sc.LinkFaults); n > 0 {
		faults = append(faults, fmt.Sprintf("%d link fault(s)", n))
	}
	if n := len(sc.PartitionFaults); n > 0 {
		faults = append(faults, fmt.Sprintf("%d gossip partition(s)", n))
	}
	if n := len(sc.ControllerFaults); n > 0 {
		faults = append(faults, fmt.Sprintf("%d controller failure(s)", n))
	}
	if n := len(sc.OverlayFaults); n > 0 {
		faults = append(faults, fmt.Sprintf("%d overlay link failure(s)", n))
	}
	if len(faults) > 0 {
		hl = append(hl, "faults: "+strings.Join(faults, ", "))
	}
	return hl
}

// ScenariosMarkdown renders the scenario catalogue: every registered scenario
// with its description, configuration highlights (built at seed 42, the seed
// the goldens pin) and the golden files that guard it.  `acmsim
// -list-scenarios -markdown` prints this document and `make docs` writes it
// to docs/SCENARIOS.md.
func ScenariosMarkdown() (string, error) {
	goldens := goldensByScenario()
	var b strings.Builder
	b.WriteString("# Scenario catalogue\n\n")
	b.WriteString("<!-- Generated by `make docs` (acmsim -list-scenarios -markdown). DO NOT EDIT.\n")
	b.WriteString("     Edit the constructors in internal/experiment/scenario.go and rerun `make docs`. -->\n\n")
	b.WriteString("Every scenario is a registered constructor in `internal/experiment`\n")
	b.WriteString("(`RegisterScenario`), runnable with `acmsim -scenario <name>` and buildable\n")
	b.WriteString("in code with `experiment.BuildScenario(name, seed)`. Configuration\n")
	b.WriteString("highlights below are taken at seed 42, the seed the golden regression\n")
	b.WriteString("files pin. Scenarios without goldens are guarded by behavioural tests\n")
	b.WriteString("instead.\n")

	for _, name := range documentedScenarioNames() {
		sc, err := BuildScenario(name, 42)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n## %s\n\n", name)
		fmt.Fprintf(&b, "%s.\n\n", strings.TrimSuffix(ScenarioDescription(name), "."))
		for _, hl := range scenarioHighlights(sc) {
			fmt.Fprintf(&b, "- %s\n", hl)
		}
		if files := goldens[name]; len(files) > 0 {
			refs := make([]string, len(files))
			for i, f := range files {
				refs[i] = fmt.Sprintf("`%s`", f)
			}
			fmt.Fprintf(&b, "- goldens: %s\n", strings.Join(refs, ", "))
		}
	}
	return b.String(), nil
}
