package experiment

import (
	"fmt"
	"strings"

	"repro/internal/tracing"
)

// This file generates docs/TRACING.md from the span catalogue in
// internal/tracing, the same way metricsdoc.go generates the metric
// catalogue: the document is a pure function of tracing.Catalog(), `make
// docs` rewrites it, and TestTracingDocCurrent fails the build when the
// committed copy is stale.

// TracingMarkdown renders the tracing guide: the span taxonomy, the
// determinism and sampling contract, and how to load an export in Perfetto.
// `acmsim -list-tracing` prints this document and `make docs` writes it to
// docs/TRACING.md.
func TracingMarkdown() string {
	var b strings.Builder
	b.WriteString("# Request tracing and the engine flight recorder\n\n")
	b.WriteString("<!-- Generated by `make docs` (acmsim -list-tracing). DO NOT EDIT.\n")
	b.WriteString("     Edit the catalogue in internal/tracing/catalog.go and rerun `make docs`. -->\n\n")
	b.WriteString("The span layer (`internal/tracing`) records a deterministic sample of\n")
	b.WriteString("requests end to end: client issue, the global traffic director's routing\n")
	b.WriteString("decision, geo RTT legs, cross-lane mailbox hops, shard dispatch, VM queue\n")
	b.WriteString("wait, service and completion re-homing. The engine flight recorder\n")
	b.WriteString("(`simclock.FlightRecorder`) adds per-epoch, per-shard busy/idle accounting\n")
	b.WriteString("of the parallel event loop plus named control-tick phases.\n\n")

	b.WriteString("## Enabling\n\n")
	b.WriteString("Set `TraceSampleFraction` on a scenario (or run a scenario that sets it,\n")
	b.WriteString("e.g. `global-traced`), or pass `-trace-sample 0.02` to `acmsim`. Add\n")
	b.WriteString("`FlightRecorder: true` to record engine utilization. Export with\n")
	b.WriteString("`acmsim -scenario global-traced -trace-out run.json`.\n\n")

	b.WriteString("## Sampling and determinism contract\n\n")
	b.WriteString("The sampling decision and the 64-bit trace ID are one pure derivation:\n")
	b.WriteString("`DeriveSeed(traceSeed, fnv1a(stream), requestID)` through the splitmix64\n")
	b.WriteString("stream machinery. No engine RNG is ever drawn, so:\n\n")
	b.WriteString("- enabling tracing changes **no** simulation behaviour — summaries, series\n")
	b.WriteString("  and goldens keep their exact bytes;\n")
	b.WriteString("- the sampled set, every span timestamp and the exported JSON are\n")
	b.WriteString("  byte-identical for every `EventWorkers`/`GOMAXPROCS` value (pinned by\n")
	b.WriteString("  the `global-traced` trace golden);\n")
	b.WriteString("- a request keeps the same trace ID in the Chrome export, the breakdown\n")
	b.WriteString("  table and the `workload_response_time_seconds` exemplars, so a tail\n")
	b.WriteString("  bucket in the metrics plane links straight to its trace.\n\n")
	b.WriteString("Traces are exported in canonical trace-ID order; flight-recorder slices in\n")
	b.WriteString("(epoch, lane) order. The flight recorder is written only at epoch barriers\n")
	b.WriteString("and on the control timeline, and \"busy\" is sim-time (epoch start to the\n")
	b.WriteString("lane's last fired event), so its records are deterministic too.\n\n")

	b.WriteString("## Span taxonomy\n\n")
	b.WriteString("| name | kind | emitted by | meaning |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range tracing.Catalog() {
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", d.Name, d.Kind, d.Source, d.Help)
	}
	b.WriteString("\n")

	b.WriteString("## Engine flight recorder\n\n")
	b.WriteString("Lanes are the engine shards plus one control timeline (always the last\n")
	b.WriteString("lane). Per epoch and lane the recorder keeps events fired, the busy prefix\n")
	b.WriteString("and idle tail in sim-time, and mailbox posts drained at the barrier;\n")
	b.WriteString("controller ticks record named phases (`vmc.tick`, probe rounds) with item\n")
	b.WriteString("counts. The acmsim report prints the per-lane utilization table; the\n")
	b.WriteString("Chrome export renders every lane as a timeline under the `engine` process.\n\n")

	b.WriteString("## Loading an export in Perfetto\n\n")
	b.WriteString("`-trace-out` writes the JSON object form of the Chrome trace-event format:\n\n")
	b.WriteString("1. `acmsim -scenario global-traced -trace-out run.json`\n")
	b.WriteString("2. open <https://ui.perfetto.dev> (or `chrome://tracing`) and load\n")
	b.WriteString("   `run.json`;\n")
	b.WriteString("3. the `requests` process holds one track per sampled request (root span\n")
	b.WriteString("   plus lifecycle annotations; args carry trace ID, stream, outcome, VM\n")
	b.WriteString("   and region); the `engine` process holds one track per engine lane with\n")
	b.WriteString("   epoch busy slices, mailbox drains and control phases.\n\n")
	b.WriteString("Timestamps are simulated microseconds since the run start — wall-clock\n")
	b.WriteString("performance of the simulator itself is a different plane (see the\n")
	b.WriteString("`BENCH_GATE` harness).\n")
	return b.String()
}
