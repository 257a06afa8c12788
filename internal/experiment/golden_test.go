package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// The golden regression suite byte-pins the summary metrics of the paper's
// figure scenarios under every policy.  It exists so that refactors of the
// simulation core (such as the sharded region engine) can prove they change
// nothing at the default configuration: the goldens were recorded before the
// refactor, and any behavioural drift — down to a single RNG draw — shows up
// as a byte difference in the summary or in the hash of the raw series.
//
// Regenerate with:
//
//	go test ./internal/experiment -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenHorizon keeps the pinned runs short enough for CI while still passing
// through ramp-up, several control eras, rejuvenations and steady state.
const goldenHorizon = 30 * simclock.Minute

// checkGolden compares got, a goldenSummary marshalled as indented JSON,
// with the golden file name under testdata/golden, or records it there
// under -update.  A drift fails the test listing each summary key whose
// value moved before the two whole summaries.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary drifted from golden %s\n%s--- got ---\n%s\n--- want ---\n%s", path, goldenFieldDiff(got, want), got, want)
	}
}

// goldenFieldDiff lists, a line each in key order, the top-level keys of
// two JSON summaries whose values differ, with both values in compact JSON
// ("absent" for a key one side lacks).
func goldenFieldDiff(got, want []byte) string {
	var g, w map[string]json.RawMessage
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Sprintf("got is not a JSON object: %v\n", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Sprintf("want is not a JSON object: %v\n", err)
	}
	keys := make([]string, 0, len(g)+len(w))
	for k := range g {
		keys = append(keys, k)
	}
	for k := range w {
		if _, ok := g[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	show := func(m map[string]json.RawMessage, k string) string {
		v, ok := m[k]
		if !ok {
			return "absent"
		}
		var b bytes.Buffer
		if json.Compact(&b, v) != nil {
			return string(v)
		}
		return b.String()
	}
	var out strings.Builder
	for _, k := range keys {
		if gv, wv := show(g, k), show(w, k); gv != wv {
			fmt.Fprintf(&out, "  %s: got %s, want %s\n", k, gv, wv)
		}
	}
	return out.String()
}

// TestGoldenFieldDiff: the drift report names exactly the keys that moved,
// nested values compared whole, and a key one side lacks.
func TestGoldenFieldDiff(t *testing.T) {
	got := []byte(`{"seed": 42, "meanResponseTime": "0.1", "finalFractions": ["0.5", "0.5"], "crashes": 0}`)
	want := []byte(`{
  "seed": 42,
  "meanResponseTime": "0.2",
  "finalFractions": [
    "0.4",
    "0.6"
  ],
  "gslbRouted": {"region1": 3}
}`)
	const diff = `  crashes: got 0, want absent
  finalFractions: got ["0.5","0.5"], want ["0.4","0.6"]
  gslbRouted: got absent, want {"region1":3}
  meanResponseTime: got "0.1", want "0.2"
`
	if d := goldenFieldDiff(got, want); d != diff {
		t.Fatalf("diff:\n%s\nwant:\n%s", d, diff)
	}
	if d := goldenFieldDiff(want, want); d != "" {
		t.Fatalf("identical summaries reported drift:\n%s", d)
	}
}

// goldenSummary is the byte-pinned view of a Result.  Floats are formatted
// with strconv 'g' / full precision instead of being stored as JSON numbers:
// the encoding is exact (round-trips the bit pattern), stable across Go
// versions, and representable for ±Inf (ConvergenceTime is +Inf when a policy
// never converges).
type goldenSummary struct {
	Scenario  string `json:"scenario"`
	PolicyKey string `json:"policy"`
	Seed      uint64 `json:"seed"`

	Eras                     uint64   `json:"eras"`
	Converged                bool     `json:"converged"`
	RelativeSpread           string   `json:"relativeSpread"`
	ConvergenceTime          string   `json:"convergenceTime"`
	FractionOscillation      string   `json:"fractionOscillation"`
	FractionDirectionChanges string   `json:"fractionDirectionChanges"`
	MeanResponseTime         string   `json:"meanResponseTime"`
	TailResponseTime         string   `json:"tailResponseTime"`
	SLAViolationRatio        string   `json:"slaViolationRatio"`
	SuccessRatio             string   `json:"successRatio"`
	ForwardedFraction        string   `json:"forwardedFraction"`
	ProactiveRejuvenations   uint64   `json:"proactiveRejuvenations"`
	ReactiveRecoveries       uint64   `json:"reactiveRecoveries"`
	Crashes                  uint64   `json:"crashes"`
	FinalFractions           []string `json:"finalFractions"`

	// GSLBRouted and GSLBTransitions pin the global traffic director's
	// observable behaviour: how many requests each region received from the
	// director, and the exact health-state transition log (drain, failover,
	// failback) with control-timeline timestamps.  Both are absent for
	// scenarios without a director, so pre-GSLB goldens are unchanged.
	GSLBRouted      map[string]uint64 `json:"gslbRouted,omitempty"`
	GSLBTransitions []string          `json:"gslbTransitions,omitempty"`

	// Gossip pins the replicated health plane's protocol and convergence
	// counters (message conservation, converged-update count, mean
	// propagation lag).  Absent without GossipReplicas, so central-director
	// goldens are unchanged.
	Gossip *goldenGossip `json:"gossip,omitempty"`

	// SeriesSHA256 hashes every recorded raw series (the full CSV dump), so
	// the golden pins not just the summary but the entire observable run.
	SeriesSHA256 string `json:"seriesSHA256"`
}

// goldenGossip is the byte-pinned view of gossip.Stats.
type goldenGossip struct {
	Replicas      int    `json:"replicas"`
	Rounds        uint64 `json:"rounds"`
	Sent          uint64 `json:"sent"`
	Delivered     uint64 `json:"delivered"`
	Dropped       uint64 `json:"dropped"`
	Converged     int    `json:"converged"`
	Pending       int    `json:"pending"`
	MeanLag       string `json:"meanLagSeconds"`
	MaxDivergence uint64 `json:"maxDivergence"`
}

// gf formats a float64 exactly (shortest representation that round-trips).
func gf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func goldenFromResult(r *Result) (goldenSummary, error) {
	var csv bytes.Buffer
	if err := r.Recorder.WriteAllCSV(&csv); err != nil {
		return goldenSummary{}, fmt.Errorf("serialising recorder: %w", err)
	}
	sum := sha256.Sum256(csv.Bytes())
	g := goldenSummary{
		Scenario:                 r.Scenario.Name,
		PolicyKey:                r.PolicyKey,
		Seed:                     r.Scenario.Seed,
		Eras:                     r.Eras,
		Converged:                r.RMTTFConvergence.Converged,
		RelativeSpread:           gf(r.RMTTFConvergence.RelativeSpread),
		ConvergenceTime:          gf(r.RMTTFConvergence.ConvergenceTime),
		FractionOscillation:      gf(r.FractionOscillation),
		FractionDirectionChanges: gf(r.FractionDirectionChanges),
		MeanResponseTime:         gf(r.MeanResponseTime),
		TailResponseTime:         gf(r.TailResponseTime),
		SLAViolationRatio:        gf(r.SLAViolationRatio),
		SuccessRatio:             gf(r.SuccessRatio),
		ForwardedFraction:        gf(r.ForwardedFraction),
		ProactiveRejuvenations:   r.ProactiveRejuvenations,
		ReactiveRecoveries:       r.ReactiveRecoveries,
		Crashes:                  r.Crashes,
		GSLBRouted:               r.GSLBRouted,
		GSLBTransitions:          r.GSLBTransitions,
		SeriesSHA256:             hex.EncodeToString(sum[:]),
	}
	for _, f := range r.FinalFractions {
		g.FinalFractions = append(g.FinalFractions, gf(f))
	}
	if r.Gossip != nil {
		g.Gossip = &goldenGossip{
			Replicas:      r.Gossip.Replicas,
			Rounds:        r.Gossip.Rounds,
			Sent:          r.Gossip.Sent,
			Delivered:     r.Gossip.Delivered,
			Dropped:       r.Gossip.Dropped,
			Converged:     r.Gossip.Converged,
			Pending:       r.Gossip.Pending,
			MeanLag:       gf(r.Gossip.MeanLagSeconds),
			MaxDivergence: r.Gossip.MaxDivergence,
		}
	}
	return g, nil
}

// TestGoldenFigureScenarios runs figure3 and figure4 under each of the
// paper's three policies and compares the byte-pinned summary against
// testdata/golden.  The scenarios run at their default configuration —
// in particular Shards=1 — so the sharded region engine is provably a no-op
// there.
func TestGoldenFigureScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six 30-minute simulations")
	}
	for _, name := range []string{"figure3", "figure4"} {
		for _, np := range Policies() {
			np := np
			t.Run(name+"/"+np.Key, func(t *testing.T) {
				sc, err := BuildScenario(name, 42)
				if err != nil {
					t.Fatal(err)
				}
				sc.Horizon = goldenHorizon
				res, err := Run(sc, np)
				if err != nil {
					t.Fatal(err)
				}
				g, err := goldenFromResult(res)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(g, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')

				checkGolden(t, fmt.Sprintf("%s-%s.json", name, np.Key), got)
			})
		}
	}
}
