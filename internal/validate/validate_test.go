package validate

import (
	"math"
	"strings"
	"testing"
)

func TestFieldf(t *testing.T) {
	err := Fieldf("acm", "Regions[2].CohortClients", "must be >= 0, got %d", -1)
	want := "acm: Regions[2].CohortClients must be >= 0, got -1"
	if err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}

type duration float64

type inner struct {
	Probability float64 `domain:"[0,1]"`
	Steps       []step
}

type step struct {
	Width duration `domain:">0"`
}

type Embedded struct {
	Replicas int `domain:">=0"`
}

type config struct {
	Embedded
	Name      string
	Seed      uint64  `domain:">=0"`
	Threshold float64 `domain:">=0|-1"`
	Loss      float64 `domain:"[0,1)"`
	Inner     inner
	Weights   []float64            `domain:">=0"`
	RTT       map[string][]float64 `domain:">=0"`
	Pair      [2]int               `domain:"(0,9]"`
	Owned     inner                `domain:"-"`
	unchecked float64
}

// TestStructReportsFirstLeaf: each leaf outside its domain is reported by
// its dotted path, in the one message shape; embedded fields take no prefix
// and map entries are reported in sorted key order.
func TestStructReportsFirstLeaf(t *testing.T) {
	ok := config{
		Threshold: -1,
		Inner:     inner{Probability: 1, Steps: []step{{1}, {0.5}}},
		Weights:   []float64{0, 2},
		RTT:       map[string][]float64{"a": {1, 2}, "b": {0}},
		Pair:      [2]int{1, 9},
		Owned:     inner{Probability: 7},
		unchecked: math.NaN(),
	}
	if err := Struct("pkg", ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := Struct("pkg", &ok); err != nil {
		t.Fatalf("valid config by pointer rejected: %v", err)
	}
	if err := Struct("pkg", struct{ Name string }{}); err != nil {
		t.Fatalf("a struct without numbers rejected: %v", err)
	}
	for _, tc := range []struct {
		mutate func(*config)
		want   string
	}{
		{func(c *config) { c.Replicas = -1 }, "pkg: Replicas must be >= 0, got -1"},
		{func(c *config) { c.Threshold = -0.5 }, "pkg: Threshold must be >= 0 or -1, got -0.5"},
		{func(c *config) { c.Threshold = math.NaN() }, "pkg: Threshold must be >= 0 or -1, got NaN"},
		{func(c *config) { c.Loss = 1 }, "pkg: Loss must be in [0, 1), got 1"},
		{func(c *config) { c.Loss = math.Inf(-1) }, "pkg: Loss must be in [0, 1), got -Inf"},
		{func(c *config) { c.Inner.Probability = 1.5 }, "pkg: Inner.Probability must be in [0, 1], got 1.5"},
		{func(c *config) { c.Inner.Steps[1].Width = 0 }, "pkg: Inner.Steps[1].Width must be > 0, got 0"},
		{func(c *config) { c.Weights[1] = math.Inf(1) }, "pkg: Weights[1] must be >= 0, got +Inf"},
		{func(c *config) { c.RTT["b"][0], c.RTT["c"] = -2, []float64{-3} }, "pkg: RTT[b][0] must be >= 0, got -2"},
		{func(c *config) { c.Pair[1] = 0 }, "pkg: Pair[1] must be in (0, 9], got 0"},
		{func(c *config) { c.Replicas, c.Loss = -1, 2 }, "pkg: Replicas must be >= 0, got -1"},
	} {
		c := ok
		c.Inner.Steps = append([]step(nil), ok.Inner.Steps...)
		c.Weights = append([]float64(nil), ok.Weights...)
		c.RTT = map[string][]float64{"a": {1, 2}, "b": {0}}
		tc.mutate(&c)
		err := Struct("pkg", c)
		if err == nil || err.Error() != tc.want {
			t.Errorf("got %v, want %q", err, tc.want)
		}
	}
}

func TestDomainGrammar(t *testing.T) {
	for _, tc := range []struct {
		tag, text string
		in, out   []float64
	}{
		{">=0", ">= 0", []float64{0, 1e9}, []float64{-1, -1e-9}},
		{">0", "> 0", []float64{1e-9, 5}, []float64{0, -1}},
		{"[0,1]", "in [0, 1]", []float64{0, 0.5, 1}, []float64{-0.1, 1.1}},
		{"(0,1]", "in (0, 1]", []float64{1, 0.1}, []float64{0}},
		{"[0,1)", "in [0, 1)", []float64{0}, []float64{1}},
		{"(0,1)", "in (0, 1)", []float64{0.5}, []float64{0, 1}},
		{"[0,65536]", "in [0, 65536]", []float64{65536}, []float64{65537}},
		{">=0|-1", ">= 0 or -1", []float64{-1, 0, 7}, []float64{-2, -0.5}},
	} {
		d, err := parseDomain(tc.tag)
		if err != nil {
			t.Fatalf("%q: %v", tc.tag, err)
		}
		if d.text != tc.text {
			t.Errorf("%q renders %q, want %q", tc.tag, d.text, tc.text)
		}
		for _, x := range append(tc.out, math.NaN(), math.Inf(1), math.Inf(-1)) {
			if d.admits(x) {
				t.Errorf("%q admits %v", tc.tag, x)
			}
		}
		for _, x := range tc.in {
			if !d.admits(x) {
				t.Errorf("%q rejects %v", tc.tag, x)
			}
		}
	}
	for _, bad := range []string{"", ">=", "[0,1", "[1,0]", "[0]", ">=x", "NaN", "[0,NaN]", "0|", "<3", "[0,1]x"} {
		if _, err := parseDomain(bad); err == nil {
			t.Errorf("malformed tag %q accepted", bad)
		}
	}
}

// TestStructRejectsUndeclaredLeaf: a numeric field without a domain, a
// malformed tag or a tag on a non-numeric field is an error naming the
// field, never a silent pass.
func TestStructRejectsUndeclaredLeaf(t *testing.T) {
	type untagged struct {
		Rate float64
	}
	type malformed struct {
		Rate float64 `domain:"[0,1"`
	}
	type misplaced struct {
		Name string `domain:">=0"`
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{untagged{}, "untagged.Rate has no domain tag"},
		{malformed{}, "malformed.Rate: domain tag"},
		{misplaced{}, "misplaced.Name: domain tag on a field with no number"},
	} {
		if err := Struct("pkg", tc.v); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%T: got %v, want %q", tc.v, err, tc.want)
		}
	}
}

func BenchmarkStruct(b *testing.B) {
	c := config{Inner: inner{Steps: []step{{1}, {2}}}, Weights: []float64{1, 2, 3}, RTT: map[string][]float64{"a": {1}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Struct("pkg", c); err != nil {
			b.Fatal(err)
		}
	}
}
