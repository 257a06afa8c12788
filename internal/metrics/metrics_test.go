package metrics

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// The conformance suite for the text encoder: the output must be valid
// Prometheus text exposition format v0.0.4 — HELP/TYPE preambles, escaped
// label values, cumulative monotone histogram buckets with a mandatory +Inf —
// and byte-deterministic for a given registry state.

func TestCounterText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Opts{Name: "requests_total", Help: "Total requests.", Labels: []string{"region"}})
	c.Set(4, "eu")
	c.Set(2, "us")

	want := strings.Join([]string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		`requests_total{region="eu"} 4`,
		`requests_total{region="us"} 2`,
		"",
	}, "\n")
	if got := r.Text(); got != want {
		t.Fatalf("counter text:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGaugeUnlabelled(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge(Opts{Name: "temperature", Help: "Current temperature."})
	g.Set(-3.25)

	want := "# HELP temperature Current temperature.\n# TYPE temperature gauge\ntemperature -3.25\n"
	if got := r.Text(); got != want {
		t.Fatalf("gauge text:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestCounterSetIsMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Opts{Name: "events_total", Help: "h"})
	c.Set(10)
	c.Set(7) // a mirrored total can never regress; the clamp keeps 10
	if got := r.Text(); !strings.Contains(got, "events_total 10") {
		t.Fatalf("Set regressed the counter:\n%s", got)
	}
	c.Set(12)
	if got := r.Text(); !strings.Contains(got, "events_total 12") {
		t.Fatalf("Set did not advance the counter:\n%s", got)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(Opts{Name: "odd_total", Help: "h", Labels: []string{"name"}})
	c.Set(1, "a\\b\"c\nd")

	if got := r.Text(); !strings.Contains(got, `odd_total{name="a\\b\"c\nd"} 1`) {
		t.Fatalf("label value not escaped per the exposition format:\n%s", got)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge(Opts{Name: "g", Help: "line one\nline two \\ backslash"})
	if got := r.Text(); !strings.Contains(got, `# HELP g line one\nline two \\ backslash`) {
		t.Fatalf("HELP text not escaped:\n%s", got)
	}
}

func TestHistogramText(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Opts{Name: "latency_seconds", Help: "h", Labels: []string{"stream"}}, []float64{0.1, 1})
	h.SetCumulative([]uint64{1, 1, 1}, 5.55, 3, "web")

	got := r.Text()
	for _, line := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{stream="web",le="0.1"} 1`,
		`latency_seconds_bucket{stream="web",le="1"} 2`,
		`latency_seconds_bucket{stream="web",le="+Inf"} 3`,
		`latency_seconds_sum{stream="web"} 5.55`,
		`latency_seconds_count{stream="web"} 3`,
	} {
		if !strings.Contains(got, line) {
			t.Fatalf("histogram text missing %q:\n%s", line, got)
		}
	}
	// Buckets must be cumulative and monotone non-decreasing ending at +Inf.
	var prev uint64
	var sawInf bool
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
		sawInf = strings.Contains(line, `le="+Inf"`)
	}
	if !sawInf {
		t.Fatal("histogram has no +Inf bucket, or +Inf is not last")
	}
}

func TestHistogramSetCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Opts{Name: "rt_seconds", Help: "h"}, []float64{1, 2})
	h.SetCumulative([]uint64{3, 1, 2}, 9.5, 6)

	got := r.Text()
	for _, line := range []string{
		`rt_seconds_bucket{le="1"} 3`,
		`rt_seconds_bucket{le="2"} 4`,
		`rt_seconds_bucket{le="+Inf"} 6`,
		"rt_seconds_sum 9.5",
		"rt_seconds_count 6",
	} {
		if !strings.Contains(got, line) {
			t.Fatalf("SetCumulative text missing %q:\n%s", line, got)
		}
	}
}

func TestChildrenSortedDeterministically(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge(Opts{Name: "v", Help: "h", Labels: []string{"a", "b"}})
	// Insertion order differs from sort order on purpose.
	g.Set(1, "z", "1")
	g.Set(2, "a", "2")
	g.Set(3, "m", "0")

	first := r.Text()
	for i := 0; i < 50; i++ {
		if r.Text() != first {
			t.Fatal("encoding is not deterministic across calls")
		}
	}
	za := strings.Index(first, `a="a"`)
	zm := strings.Index(first, `a="m"`)
	zz := strings.Index(first, `a="z"`)
	if !(za < zm && zm < zz) {
		t.Fatalf("children not sorted by label values:\n%s", first)
	}
}

func TestNameValidation(t *testing.T) {
	for name, ok := range map[string]bool{
		"requests_total":  true,
		"acm:eras":        true,
		"_hidden":         true,
		"9lives":          false,
		"has-dash":        false,
		"":                false,
		"ünïcode":         false,
		"a.b":             false,
		"valid_name_2":    true,
		"UPPER_ok":        true,
		"trailing_space ": false,
	} {
		if got := ValidMetricName(name); got != ok {
			t.Errorf("ValidMetricName(%q) = %v, want %v", name, got, ok)
		}
	}
	if ValidLabelName("le:x") {
		t.Error("label names must not contain colons")
	}
	if !ValidLabelName("region") {
		t.Error("plain label name rejected")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter(Opts{Name: "dup", Help: "h"})
	mustPanic("duplicate name", func() { r.Gauge(Opts{Name: "dup", Help: "h"}) })
	mustPanic("invalid name", func() { r.Counter(Opts{Name: "bad-name", Help: "h"}) })
	mustPanic("invalid label", func() { r.Counter(Opts{Name: "c", Help: "h", Labels: []string{"bad-label"}}) })
	mustPanic("no buckets", func() { r.Histogram(Opts{Name: "h1", Help: "h"}, nil) })
	mustPanic("non-increasing buckets", func() { r.Histogram(Opts{Name: "h2", Help: "h"}, []float64{1, 1}) })
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Gauge(Opts{Name: "up", Help: "h"}).Set(1)

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	Handler(r).ServeHTTP(w, req)

	if ct := w.Header().Get("Content-Type"); ct != TextContentType {
		t.Fatalf("content type %q, want %q", ct, TextContentType)
	}
	if body := w.Body.String(); !strings.Contains(body, "up 1") {
		t.Fatalf("handler body:\n%s", body)
	}

	// A nil registry serves an empty exposition rather than panicking.
	w = httptest.NewRecorder()
	Handler(nil).ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("nil-registry handler status %d", w.Code)
	}
}

func TestDescribe(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "b_total", Help: "b", Source: "pkg/b"})
	r.Histogram(Opts{Name: "a_seconds", Help: "a", Source: "pkg/a", Labels: []string{"x"}}, []float64{1, 2})

	descs := r.Describe()
	if len(descs) != 2 {
		t.Fatalf("got %d descs", len(descs))
	}
	// Registration order, not name order.
	if descs[0].Name != "b_total" || descs[1].Name != "a_seconds" {
		t.Fatalf("descs out of registration order: %+v", descs)
	}
	if descs[1].Kind != KindHistogram || len(descs[1].Buckets) != 2 || descs[1].Labels[0] != "x" {
		t.Fatalf("histogram desc wrong: %+v", descs[1])
	}
}

// TestEach pins the sampler's read path: counter and gauge samples are
// visited in first-set order (not the sorted exposition order), a later
// update keeps a sample's place, and an unknown name or a histogram family
// visits nothing.
func TestEach(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge(Opts{Name: "lane_rtt", Help: "RTT.", Labels: []string{"stream", "region"}})
	c := r.Counter(Opts{Name: "eras_total", Help: "Eras."})
	h := r.Histogram(Opts{Name: "latency_seconds", Help: "Latency."}, []float64{1})
	g.Set(1, "us", "zz")
	g.Set(2, "eu", "aa")
	g.Set(3, "us", "aa")
	g.Set(4, "us", "zz")
	c.Set(7)
	h.SetCumulative([]uint64{1, 0}, 0.5, 1)

	var got []string
	collect := func(labels []string, v float64) {
		got = append(got, strings.Join(labels, ":")+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
	r.Each("lane_rtt", collect)
	r.Each("eras_total", collect)
	want := []string{"us:zz=4", "eu:aa=2", "us:aa=3", "=7"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Each visited %q, want %q", got, want)
	}

	got = nil
	r.Each("no_such_family", collect)
	r.Each("latency_seconds", collect)
	if len(got) != 0 {
		t.Fatalf("Each visited %q for an unknown name and a histogram, want nothing", got)
	}
}
