package experiment

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// This file generates docs/METRICS.md from the instrument registry, the same
// way docgen.go generates the scenario catalogue: the document is a pure
// function of the families a deployment registers, `make docs` rewrites it,
// and TestMetricsDocCurrent fails the build when the committed copy is stale.

// metricsDocScenarios are the representative deployments whose registries,
// unioned, cover every family the simulator can register.  Latency
// estimates need a one-replica health plane and the gossip families need two
// or more replicas, so both shapes are built; figure3 contributes the plain
// regional families.
func metricsDocScenarios() []string {
	return []string{"figure3", "global-latency", "global-gossip"}
}

// describeAllMetrics builds each representative deployment (without running
// it — families are registered at construction) and unions the Describe()
// output, preserving first-seen registration order.
func describeAllMetrics() ([]metrics.Desc, error) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		return nil, err
	}
	var descs []metrics.Desc
	seen := map[string]bool{}
	for _, name := range metricsDocScenarios() {
		sc, err := BuildScenario(name, 42)
		if err != nil {
			return nil, err
		}
		b, err := NewBackend(sc, np)
		if err != nil {
			return nil, err
		}
		for _, d := range b.Registry().Describe() {
			if seen[d.Name] {
				continue
			}
			seen[d.Name] = true
			descs = append(descs, d)
		}
	}
	return descs, nil
}

// docBuckets renders histogram upper bounds compactly for the catalogue.
func docBuckets(bounds []float64) string {
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = fmt.Sprintf("%g", b)
	}
	return strings.Join(parts, ", ") + ", +Inf"
}

// MetricsMarkdown renders the metric catalogue: every instrument family the
// simulator registers, grouped by the package whose state it mirrors, with
// kind, labels and HELP text.  `acmsim -list-metrics` prints this document
// and `make docs` writes it to docs/METRICS.md.
func MetricsMarkdown() (string, error) {
	descs, err := describeAllMetrics()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("# Metric catalogue\n\n")
	b.WriteString("<!-- Generated by `make docs` (acmsim -list-metrics). DO NOT EDIT.\n")
	b.WriteString("     Edit the registrations in internal/acm/metrics.go and rerun `make docs`. -->\n\n")
	b.WriteString("The simulator writes its state into a typed instrument registry\n")
	b.WriteString("(`internal/metrics`) at each control-era barrier. The recorded time\n")
	b.WriteString("series (`acmsim -csv`, the figures, the goldens) are sampled from these\n")
	b.WriteString("instruments, and the registry is served live in Prometheus text\n")
	b.WriteString("exposition format v0.0.4: run `acmsim` with\n")
	b.WriteString("`-metrics-addr :9090` and scrape `http://localhost:9090/metrics` while the\n")
	b.WriteString("simulation executes. Families below are the union of representative\n")
	b.WriteString("deployments (" + strings.Join(metricsDocScenarios(), ", ") + "); the\n")
	b.WriteString("gslb families exist only when the deployment runs a health plane, the RTT\n")
	b.WriteString("family only with latency estimates, and the gossip families only with two\n")
	b.WriteString("or more replicas. Instruments are written only at control-era barriers from\n")
	b.WriteString("already-merged state, so registry snapshots are deterministic for any\n")
	b.WriteString("worker count.\n")

	var order []string
	bySource := map[string][]metrics.Desc{}
	for _, d := range descs {
		if _, ok := bySource[d.Source]; !ok {
			order = append(order, d.Source)
		}
		bySource[d.Source] = append(bySource[d.Source], d)
	}
	for _, source := range order {
		fmt.Fprintf(&b, "\n## %s\n\n", source)
		b.WriteString("| name | kind | labels | help |\n")
		b.WriteString("|---|---|---|---|\n")
		for _, d := range bySource[source] {
			labels := "—"
			if len(d.Labels) > 0 {
				quoted := make([]string, len(d.Labels))
				for i, l := range d.Labels {
					quoted[i] = "`" + l + "`"
				}
				labels = strings.Join(quoted, ", ")
			}
			help := d.Help
			if d.Kind == metrics.KindHistogram {
				help += " Buckets: " + docBuckets(d.Buckets) + "."
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.Name, d.Kind, labels, help)
		}
	}
	return b.String(), nil
}
