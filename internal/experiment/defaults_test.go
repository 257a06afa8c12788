package experiment

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// indexFree drops the slice indices and map keys of a leaf path, so the
// leaves of every region share one path.
var indexFree = regexp.MustCompile(`\[[^\]]*\]`)

// defaultedLeaves returns the index-free paths of the numeric leaves the
// edge gives a default: on a scenario whose every leaf is set, zeroing the
// leaf alone, or every leaf of a struct holding it at once (the all-zero
// rules of cloudsim's profiles), makes withDefaults put a non-zero back.
func defaultedLeaves() map[string]bool {
	_, leaves := allLeavesScenario()
	groups := map[string][]int{}
	for i, l := range leaves {
		groups[l.path] = append(groups[l.path], i)
		for j := range l.path {
			if l.path[j] == '.' {
				groups[l.path[:j]] = append(groups[l.path[:j]], i)
			}
		}
	}
	out := map[string]bool{}
	for _, group := range groups {
		sc, leaves := allLeavesScenario()
		for _, i := range group {
			leaves[i].set(0)
		}
		filled := leavesOf(sc.withDefaults())
		for _, i := range group {
			if filled[i].float() != 0 {
				out[indexFree.ReplaceAllString(leaves[i].path, "[]")] = true
			}
		}
	}
	return out
}

// TestBuiltScenarioIsFilled: every registered scenario comes out of
// BuildScenario holding the values it runs with.  It is a fixed point of
// the fill, and no leaf that has a default reads 0.  The gossip tuning has
// a default only where it is used, with two or more replicas.
func TestBuiltScenarioIsFilled(t *testing.T) {
	defaulted := defaultedLeaves()
	for _, p := range []string{"Beta", "EventWorkers", "VMC.RTTFThreshold", "GSLB.ProbeInterval", "MLProfile.VMs",
		"GossipInterval", "Regions[].Region.Shards", "Regions[].Region.Failure.ResponseTimeSLAMs"} {
		if !defaulted[p] {
			t.Fatalf("%s is not among the defaulted leaves %v; the probe is broken", p, defaulted)
		}
	}
	for _, name := range ScenarioNames() {
		sc, err := BuildScenario(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		if again := sc.withDefaults(); !reflect.DeepEqual(again, sc) {
			t.Errorf("%s: a second fill moved the built scenario:\n%+v\nvs\n%+v", name, again, sc)
		}
		for _, l := range leavesOf(sc) {
			p := indexFree.ReplaceAllString(l.path, "[]")
			if !defaulted[p] || l.float() != 0 || strings.HasPrefix(p, "Gossip") && sc.GossipReplicas < 2 {
				continue
			}
			t.Errorf("%s: %s reads 0, but the run uses a default for it", name, l.path)
		}
	}
}
