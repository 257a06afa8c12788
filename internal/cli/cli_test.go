package cli

import (
	"flag"
	"strings"
	"testing"
)

func TestRegisterSweepFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sw := RegisterSweepFlags(fs, 7, "workers usage")
	if err := fs.Parse([]string{"-scenarios", "figure3,figure4", "-betas", "0.25,0.75", "-reps", "3"}); err != nil {
		t.Fatal(err)
	}
	if !sw.Active() {
		t.Fatal("sweep not active with -scenarios set")
	}
	if *sw.Workers != 7 {
		t.Fatalf("workers default %d, want the caller's 7", *sw.Workers)
	}
	m, err := sw.Matrix(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Scenarios) != 2 || m.Replications != 3 || m.BaseSeed != 42 {
		t.Fatalf("matrix %+v", m)
	}
	if len(m.Betas) != 2 || m.Betas[0] != 0.25 {
		t.Fatalf("betas %v", m.Betas)
	}
	if got := sw.Options().Workers; got != 7 {
		t.Fatalf("options workers %d", got)
	}
}

func TestMatrixRejectsBadBetas(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sw := RegisterSweepFlags(fs, 0, "u")
	if err := fs.Parse([]string{"-scenarios", "figure3", "-betas", "0.25,nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Matrix(1); err == nil {
		t.Fatal("expected an error for a non-numeric beta")
	}
}

func TestSweepOnlyFlagNames(t *testing.T) {
	with := SweepOnlyFlagNames(true)
	without := SweepOnlyFlagNames(false)
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	if !has(with, "workers") || has(without, "workers") {
		t.Fatalf("workers handling wrong: with=%v without=%v", with, without)
	}
	for _, n := range []string{"sweep-csv", "sweep-json", "journal", "betas", "reps", "policies"} {
		if !has(with, n) || !has(without, n) {
			t.Fatalf("missing shared sweep-only flag %q", n)
		}
	}
}

func TestParseRTT(t *testing.T) {
	rtt, err := ParseRTT("global=60,120; americas = 80,140", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtt) != 2 || rtt["global"][1] != 120 || rtt["americas"][0] != 80 {
		t.Fatalf("rtt %v", rtt)
	}

	// Errors keep the named-flag form so CLI output stays actionable.
	cases := []struct {
		spec    string
		regions int
		want    string
	}{
		{"globalnoequals", 2, "-rtt: row \"globalnoequals\" is not stream=ms1,ms2,..."},
		{"g=1,2;g=3,4", 2, `-rtt: stream "g" listed twice`},
		{"g=1,2,3", 2, `-rtt: stream "g" has 3 entries, want one per deployed region (2)`},
		{"g=1,x", 2, `-rtt: stream "g" entry 1:`},
		{" ; ", 2, `-rtt: no rows in`},
	}
	for _, c := range cases {
		_, err := ParseRTT(c.spec, c.regions)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseRTT(%q) error %v, want substring %q", c.spec, err, c.want)
		}
	}
}

// TestParseRTTSeparatorTolerance: shell-quoted specs routinely pick up a
// trailing semicolon or blank interior rows; both must parse as if absent
// rather than turning into phantom streams.
func TestParseRTTSeparatorTolerance(t *testing.T) {
	for _, spec := range []string{
		"g=1,2;",
		";g=1,2",
		"g=1,2 ; ; ",
	} {
		rtt, err := ParseRTT(spec, 2)
		if err != nil {
			t.Fatalf("ParseRTT(%q): %v", spec, err)
		}
		if len(rtt) != 1 || rtt["g"][0] != 1 || rtt["g"][1] != 2 {
			t.Fatalf("ParseRTT(%q) = %v, want one g row", spec, rtt)
		}
	}
}

// TestParseRTTEdgeCases: malformed labels and cells each name the -rtt flag
// and the offending stream, so the CLI error is actionable without reading
// the parser.
func TestParseRTTEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		regions int
		want    string
	}{
		{"empty label", " =1,2", 2, "is not stream=ms1,ms2,..."},
		{"empty value list", "g=", 2, `-rtt: stream "g" has 1 entries, want one per deployed region (2)`},
		{"lone row short", "g=1", 2, `-rtt: stream "g" has 1 entries, want one per deployed region (2)`},
		{"blank cell", "g=1,,3", 3, `-rtt: stream "g" entry 1:`},
		{"whitespace cell", "g=1, ,3", 3, `-rtt: stream "g" entry 1:`},
		{"non-numeric tail", "g=1,2;h=3,4ms", 2, `-rtt: stream "h" entry 1:`},
		{"duplicate after trim", " g =1,2; g=3,4", 2, `-rtt: stream "g" listed twice`},
		{"duplicate with trailing sep", "g=1,2;g=3,4;", 2, `-rtt: stream "g" listed twice`},
		{"only separators", ";;;", 2, "-rtt: no rows in"},
		{"empty spec", "", 2, "-rtt: no rows in"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseRTT(c.spec, c.regions)
			if err == nil {
				t.Fatalf("ParseRTT(%q) succeeded, want error with %q", c.spec, c.want)
			}
			if !strings.HasPrefix(err.Error(), "-rtt: ") {
				t.Fatalf("ParseRTT(%q) error %q does not name the -rtt flag", c.spec, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ParseRTT(%q) error %q, want substring %q", c.spec, err, c.want)
			}
		})
	}
}

// FuzzParseRTT: ParseRTT never panics, and every matrix it accepts has a
// trimmed, non-empty stream name and exactly one entry per region on each
// row.
func FuzzParseRTT(f *testing.F) {
	f.Add("global=60,120;americas=80,140", 2)
	f.Add(" global = 60 ; ; asia=1e3 ", 1)
	f.Add("x=1,2,3;x=4,5,6", 3)
	f.Add("=1", 1)
	f.Add("a=1,,2", 3)
	f.Add(";", 0)
	f.Fuzz(func(t *testing.T, spec string, regions int) {
		rtt, err := ParseRTT(spec, regions)
		if err != nil {
			return
		}
		if len(rtt) == 0 {
			t.Fatalf("ParseRTT(%q, %d) accepted an empty matrix", spec, regions)
		}
		for stream, row := range rtt {
			if stream == "" || stream != strings.TrimSpace(stream) {
				t.Fatalf("ParseRTT(%q, %d) accepted stream name %q", spec, regions, stream)
			}
			if len(row) != regions {
				t.Fatalf("ParseRTT(%q, %d): stream %q has %d entries", spec, regions, stream, len(row))
			}
		}
	})
}
