package main

import (
	"math"
	"strings"
	"testing"
)

// TestRunRejectsBadCounts: -vms, -rate, -failures and -sample must be
// positive and finite.  A zero or negative value would otherwise be
// replaced by a default behind the user's back, NaN would panic in the
// event queue and an infinite rate would never finish, so each fails by
// flag name before any profiling starts.
func TestRunRejectsBadCounts(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		flag             string
		vms, failures    int
		rate, sampleSecs float64
	}{
		{"vms", 0, 12, 6, 30},
		{"vms", -2, 12, 6, 30},
		{"failures", 4, 0, 6, 30},
		{"rate", 4, 12, 0, 30},
		{"rate", 4, 12, nan, 30},
		{"rate", 4, 12, inf, 30},
		{"sample", 4, 12, 6, -1},
		{"sample", 4, 12, 6, nan},
		{"sample", 4, 12, 6, inf},
	} {
		for _, instance := range []string{"m3.medium", "all"} {
			err := run(instance, tc.vms, tc.rate, tc.failures, tc.sampleSecs, "REPTree", 7, "")
			if want := "-" + tc.flag + " must be > 0"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-instance %s %+v: got error %v, want %q", instance, tc, err, want)
			}
		}
	}
}
