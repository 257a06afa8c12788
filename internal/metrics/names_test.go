package metrics

import (
	"regexp"
	"testing"
)

// The grammars ValidMetricName and ValidLabelName scan for, as regexps.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// FuzzNameScannersMatchRegexp checks both byte scanners against their
// grammar's regexp on arbitrary strings, multi-byte UTF-8 and invalid bytes
// included.
func FuzzNameScannersMatchRegexp(f *testing.F) {
	for _, s := range []string{"", "a", "_", ":", "9", "acm:eras", "le:x", "requests_total",
		"9lives", "has-dash", "ünïcode", "a.b", "x\n", "trailing ", "\xff", "Z9_:z"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := ValidMetricName(name), metricNameRe.MatchString(name); got != want {
			t.Errorf("ValidMetricName(%q) = %v, regexp says %v", name, got, want)
		}
		if got, want := ValidLabelName(name), labelNameRe.MatchString(name); got != want {
			t.Errorf("ValidLabelName(%q) = %v, regexp says %v", name, got, want)
		}
	})
}
