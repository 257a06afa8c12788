// Package metrics is the typed metrics plane of the reproduction: a small
// Prometheus-style registry of counter/gauge/histogram instruments with
// labels, plus a stdlib-only text-format (v0.0.4) encoder so live runs can be
// scraped on the same dashboards a real deployment would use.  The registry
// is also the single write target for the control loop's era values: the
// experiment time series are sampled from it (Registry.Each) rather than
// recorded separately.
//
// Determinism contract: instruments are only ever written on the control
// timeline at epoch barriers (the Manager's control era), from state that is
// already merged in the fixed fold order of the engine's determinism
// contract.  No simulation state ever depends on an instrument, and the text
// exposition — like the series sampled from the registry — is byte-identical
// for every EventWorkers value.  The registry mutex exists only so a
// concurrent HTTP scrape observes a consistent snapshot of the last barrier.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the instrument type of a metric family.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing cumulative value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution with a sum and a count.
	KindHistogram
)

// String returns the Prometheus TYPE keyword of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// TextContentType is the Content-Type of the Prometheus text exposition
// format the registry writes.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// ValidMetricName reports whether name is a valid Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func ValidMetricName(name string) bool { return validName(name, true) }

// ValidLabelName reports whether name is a valid Prometheus label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func ValidLabelName(name string) bool { return validName(name, false) }

// validName scans name against the metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* when colon is set, and against the label-name
// grammar [a-zA-Z_][a-zA-Z0-9_]* otherwise.
func validName(name string, colon bool) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || colon && c == ':' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// Opts names and documents one metric family at registration time.
type Opts struct {
	// Name is the Prometheus metric name ("gslb_routed_requests_total").
	Name string
	// Help is the one-line HELP text.
	Help string
	// Source is the package whose state the family mirrors
	// ("internal/gslb"); it appears in the generated docs/METRICS.md.
	Source string
	// Labels are the label names every sample of the family carries, in
	// order.  Empty means a single unlabelled sample.
	Labels []string
}

// Desc describes one registered family for documentation and linting.
type Desc struct {
	Name    string
	Help    string
	Source  string
	Kind    Kind
	Labels  []string
	Buckets []float64 // histogram upper bounds (without +Inf); nil otherwise
}

// exemplar is one trace-linked observation attached to a histogram bucket,
// rendered as an OpenMetrics-style exemplar suffix on the bucket line.
type exemplar struct {
	traceID string
	value   float64
	ts      float64
	set     bool
}

// child is one labelled sample of a family.
type child struct {
	labelValues []string
	value       float64  // counter / gauge
	counts      []uint64 // histogram: per-bin counts, last bin is +Inf
	sum         float64
	count       uint64
	exemplars   []exemplar // histogram: per-bin exemplars; nil until one is set
}

// family is one registered metric family and its labelled children.
type family struct {
	reg      *Registry
	opts     Opts
	kind     Kind
	buckets  []float64
	children map[string]*child
	order    []*child // children in first-set order
}

// Registry holds metric families in registration order and encodes them as
// Prometheus text exposition.  Registration panics on invalid or duplicate
// names (a program-structure error, like prometheus.MustRegister); sample
// updates and reads are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(o Opts, kind Kind, buckets []float64) *family {
	if !ValidMetricName(o.Name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", o.Name))
	}
	for _, l := range o.Labels {
		if !ValidLabelName(l) {
			panic(fmt.Sprintf("metrics: metric %s has invalid label name %q", o.Name, l))
		}
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("metrics: histogram %s has no buckets", o.Name))
		}
		for i := 1; i < len(buckets); i++ {
			if !(buckets[i] > buckets[i-1]) {
				panic(fmt.Sprintf("metrics: histogram %s has non-increasing buckets", o.Name))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[o.Name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", o.Name))
	}
	f := &family{
		reg:      r,
		opts:     o,
		kind:     kind,
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*child{},
	}
	r.families = append(r.families, f)
	r.byName[o.Name] = f
	return f
}

// Counter registers a counter family.
func (r *Registry) Counter(o Opts) *Counter {
	return &Counter{fam: r.register(o, KindCounter, nil)}
}

// Gauge registers a gauge family.
func (r *Registry) Gauge(o Opts) *Gauge {
	return &Gauge{fam: r.register(o, KindGauge, nil)}
}

// Histogram registers a histogram family with the given upper bounds
// (strictly increasing; a +Inf overflow bin is implicit).
func (r *Registry) Histogram(o Opts, buckets []float64) *Histogram {
	return &Histogram{fam: r.register(o, KindHistogram, buckets)}
}

// Describe returns every registered family in registration order.
func (r *Registry) Describe() []Desc {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Desc, len(r.families))
	for i, f := range r.families {
		out[i] = Desc{
			Name:    f.opts.Name,
			Help:    f.opts.Help,
			Source:  f.opts.Source,
			Kind:    f.kind,
			Labels:  append([]string(nil), f.opts.Labels...),
			Buckets: append([]float64(nil), f.buckets...),
		}
	}
	return out
}

// childKey joins label values into the map key.  \xff cannot appear in the
// escaped text form, so the join is unambiguous.
func childKey(labelValues []string) string { return strings.Join(labelValues, "\xff") }

// get returns (creating if needed) the family's child for the label values.
// Callers hold the registry mutex.
func (f *family) get(labelValues []string) *child {
	if len(labelValues) != len(f.opts.Labels) {
		panic(fmt.Sprintf("metrics: metric %s wants %d label values, got %d",
			f.opts.Name, len(f.opts.Labels), len(labelValues)))
	}
	key := childKey(labelValues)
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			c.counts = make([]uint64, len(f.buckets)+1)
		}
		f.children[key] = c
		f.order = append(f.order, c)
	}
	return c
}

// Each calls fn with the label values and value of every sample of the
// counter or gauge family called name, in the order the samples were first
// set.  An unregistered name (or a histogram family) visits nothing.  fn
// runs under the registry mutex and must not call back into the registry.
func (r *Registry) Each(name string, fn func(labelValues []string, value float64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok || f.kind == KindHistogram {
		return
	}
	for _, c := range f.order {
		fn(c.labelValues, c.value)
	}
}

// Counter is a monotonically non-decreasing instrument.
type Counter struct{ fam *family }

// Set mirrors an externally accumulated total into the counter.  The update
// is clamped monotone: a total below the current value is ignored, so a
// mirrored counter can never regress even if its source is re-read
// mid-merge.
func (c *Counter) Set(total float64, labelValues ...string) {
	r := c.fam.reg
	r.mu.Lock()
	ch := c.fam.get(labelValues)
	if total > ch.value {
		ch.value = total
	}
	r.mu.Unlock()
}

// Gauge is an instrument whose value can go up and down.
type Gauge struct{ fam *family }

// Set sets the labelled sample.
func (g *Gauge) Set(v float64, labelValues ...string) {
	r := g.fam.reg
	r.mu.Lock()
	g.fam.get(labelValues).value = v
	r.mu.Unlock()
}

// Histogram is a bucketed distribution instrument.
type Histogram struct{ fam *family }

// SetCumulative mirrors an externally accumulated distribution into the
// labelled sample: counts are the per-bin counts (len(buckets)+1, the last
// bin the +Inf overflow), sum and count the running total and observation
// count.  The whole state is replaced, so the source's own merge order —
// not the mirror cadence — determines the exposed bytes.
func (h *Histogram) SetCumulative(counts []uint64, sum float64, count uint64, labelValues ...string) {
	r := h.fam.reg
	r.mu.Lock()
	ch := h.fam.get(labelValues)
	if len(counts) == len(ch.counts) {
		copy(ch.counts, counts)
		ch.sum = sum
		ch.count = count
	}
	r.mu.Unlock()
}

// SetExemplar attaches a trace-linked exemplar to one bucket of the labelled
// sample: bucket indexes the per-bin counts (len(buckets) is the +Inf bin),
// value is the observed value and ts its sim-time timestamp in seconds.  The
// exemplar is rendered as an OpenMetrics-style `# {trace_id="..."} value ts`
// suffix on that bucket's line; samples without exemplars render exactly as
// before, so enabling tracing never perturbs the exposition of untraced runs.
func (h *Histogram) SetExemplar(bucket int, traceID string, value, ts float64, labelValues ...string) {
	r := h.fam.reg
	r.mu.Lock()
	ch := h.fam.get(labelValues)
	if bucket >= 0 && bucket < len(ch.counts) {
		if ch.exemplars == nil {
			ch.exemplars = make([]exemplar, len(ch.counts))
		}
		ch.exemplars[bucket] = exemplar{traceID: traceID, value: value, ts: ts, set: true}
	}
	r.mu.Unlock()
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double-quote and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes HELP text per the text format: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelPairs renders {name="value",...} for the sample, with extra appended
// last (the histogram's le pair).
func labelPairs(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabelValue(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabelValue(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText encodes the registry as Prometheus text exposition v0.0.4:
// families in registration order, children in sorted label-value order (so
// the bytes are independent of update order), histogram buckets cumulative
// and monotone with the mandatory +Inf bucket, _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.opts.Name, escapeHelp(f.opts.Help), f.opts.Name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := f.children[k]
			if f.kind != KindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.opts.Name,
					labelPairs(f.opts.Labels, c.labelValues, "", ""), formatValue(c.value)); err != nil {
					return err
				}
				continue
			}
			cum := uint64(0)
			for i, n := range c.counts {
				cum += n
				le := "+Inf"
				if i < len(f.buckets) {
					le = formatValue(f.buckets[i])
				}
				suffix := ""
				if i < len(c.exemplars) && c.exemplars[i].set {
					ex := c.exemplars[i]
					suffix = fmt.Sprintf(" # {trace_id=\"%s\"} %s %s",
						escapeLabelValue(ex.traceID), formatValue(ex.value), formatValue(ex.ts))
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.opts.Name,
					labelPairs(f.opts.Labels, c.labelValues, "le", le), cum, suffix); err != nil {
					return err
				}
			}
			pairs := labelPairs(f.opts.Labels, c.labelValues, "", "")
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				f.opts.Name, pairs, formatValue(c.sum), f.opts.Name, pairs, c.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text returns the registry's text exposition as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

// Handler returns an http.Handler serving the registry's text exposition —
// the /metrics endpoint of a live run.  A nil registry serves an empty body,
// so the endpoint can be wired unconditionally.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		if r != nil {
			_ = r.WriteText(w)
		}
	})
}
