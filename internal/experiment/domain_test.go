package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/acm"
)

// testDomains spells out, independently of the validator's parser, the
// finite values each domain the config types declare admits.
var testDomains = map[string]func(x float64) bool{
	">=0":       func(x float64) bool { return x >= 0 },
	">0":        func(x float64) bool { return x > 0 },
	"[0,1]":     func(x float64) bool { return x >= 0 && x <= 1 },
	"[0,1)":     func(x float64) bool { return x >= 0 && x < 1 },
	">0|-1":     func(x float64) bool { return x > 0 || x == -1 },
	"(0,1]":     func(x float64) bool { return x > 0 && x <= 1 },
	"[1,65536]": func(x float64) bool { return x >= 1 && x <= 65536 },
}

// inDomain reports whether x lies in the domain tag spells (NaN and ±Inf
// never do) and whether testDomains knows the tag.
func inDomain(tag string, x float64) (in, known bool) {
	admits, known := testDomains[tag]
	return known && !math.IsInf(x, 0) && admits(x), known
}

// numericLeaf is one numeric value inside a scenario: its path as the
// validator prints it, the domain tag of the field holding it, and the
// settable value itself.
type numericLeaf struct {
	path string
	tag  string
	v    reflect.Value
}

// numericLeaves returns every numeric leaf under v in declaration order,
// every slice element and map entry included (map keys in range order).  A
// named field tagged `domain:"-"` is left out: neither NewManager nor
// LoadScenario checks its leaves, because the package that uses it does
// (MLProfile.Instance, which acm requires unset and f2pm checks once
// defaulted).  An embedded config tagged so is walked, since its owner is
// one of the two.
func numericLeaves(v reflect.Value, path, tag string) []numericLeaf {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return []numericLeaf{{path: strings.TrimPrefix(path, "."), tag: tag, v: v}}
	case reflect.Struct:
		var out []numericLeaf
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || f.Tag.Get("domain") == "-" && !f.Anonymous {
				continue
			}
			p := path + "." + f.Name
			if f.Anonymous {
				p = path
			}
			out = append(out, numericLeaves(v.Field(i), p, f.Tag.Get("domain"))...)
		}
		return out
	case reflect.Slice:
		var out []numericLeaf
		for i := 0; i < v.Len(); i++ {
			out = append(out, numericLeaves(v.Index(i), path+"["+strconv.Itoa(i)+"]", tag)...)
		}
		return out
	case reflect.Map:
		var out []numericLeaf
		for it := v.MapRange(); it.Next(); {
			out = append(out, numericLeaves(it.Value(), path+"["+it.Key().String()+"]", tag)...)
		}
		return out
	}
	return nil
}

func (l numericLeaf) float() float64 {
	switch {
	case l.v.CanInt():
		return float64(l.v.Int())
	case l.v.CanUint():
		return float64(l.v.Uint())
	}
	return l.v.Float()
}

func (l numericLeaf) set(x float64) {
	switch {
	case l.v.CanInt():
		l.v.SetInt(int64(x))
	case l.v.CanUint():
		l.v.SetUint(uint64(x))
	default:
		l.v.SetFloat(x)
	}
}

// allLeavesScenario returns a scenario with every numeric leaf of the type
// present and in its domain: fillNonZero gives every slice one element and
// every map one key, so walking it walks the whole Scenario type.  Its
// Backend is the simulator, so LoadScenario can accept it.
func allLeavesScenario() (*Scenario, []numericLeaf) {
	sc := &Scenario{}
	fillNonZero(reflect.ValueOf(sc).Elem())
	sc.Backend = "sim"
	return sc, numericLeaves(reflect.ValueOf(sc).Elem(), "", "")
}

// leavesOf returns the numeric leaves of a copy of sc.
func leavesOf(sc Scenario) []numericLeaf {
	return numericLeaves(reflect.ValueOf(&sc).Elem(), "", "")
}

// TestEveryConfigLeafHasADomain fails, naming the leaf, on a numeric leaf of
// Scenario without a declared domain.  Then, for every leaf, it sets each
// probe outside the domain (NaN, ±Inf, -1, and 0 where 0 is outside) on a
// scenario whose every other leaf is valid, and asserts the rejection names
// the leaf: NewManager for the embedded acm.Config's leaves, Run for the
// scenario's own, and LoadScenario for every probe JSON can encode.  A 0
// that the edge fills (Scenario.withDefaults) is the exception on the
// loading side: NewManager still rejects it by name, and LoadScenario
// accepts the file with the default in its place.  No probe is large, so
// nothing accepted by mistake can grow a population or a loop.
func TestEveryConfigLeafHasADomain(t *testing.T) {
	_, leaves := allLeavesScenario()
	if len(leaves) < 90 {
		t.Fatalf("found %d numeric leaves in Scenario; the walk is broken", len(leaves))
	}
	ownLeaves := map[string]bool{"Horizon": true, "TailFraction": true, "ConvergenceTolerance": true}
	np := Policies()[0]
	for i, l := range leaves {
		in, known := inDomain(l.tag, l.float())
		switch {
		case l.tag == "":
			t.Errorf("%s has no domain tag", l.path)
			continue
		case !known:
			t.Errorf("%s: domain %q is not in testDomains; add it", l.path, l.tag)
			continue
		case !in:
			t.Fatalf("%s: the base value %v is outside %q", l.path, l.float(), l.tag)
		}
		// Integers cannot hold NaN or ±Inf, nor unsigned ones -1.
		var probes []float64
		if l.v.CanFloat() {
			probes = append(probes, math.NaN(), math.Inf(1), math.Inf(-1))
		}
		if !l.v.CanUint() {
			probes = append(probes, -1)
		}
		probes = append(probes, 0)
		for _, x := range probes {
			if in, _ := inDomain(l.tag, x); in {
				continue
			}
			sc, fresh := allLeavesScenario()
			fresh[i].set(x)
			// filled is what the edge puts in place of a 0: non-zero
			// where 0 selects a default.
			filled := 0.0
			if x == 0 {
				filled = leavesOf(sc.withDefaults())[i].float()
			}
			var err error
			want := "acm: " + l.path + " must be "
			switch {
			case !ownLeaves[l.path]:
				_, err = acm.NewManager(sc.Config)
			case filled == 0:
				want = "experiment: " + l.path + " must be "
				_, err = Run(*sc, np)
			default:
				// Run fills the 0 too, and would run the scenario.
				err = errors.New(want)
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v: got error %v, want one containing %q", l.path, x, err, want)
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(*sc); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadScenario(&buf)
			if filled != 0 {
				if err != nil {
					t.Errorf("LoadScenario with %s = 0: %v, want the default %v filled", l.path, err, filled)
				} else if got := leavesOf(loaded)[i].float(); got != filled {
					t.Errorf("LoadScenario with %s = 0 loaded %v, want the default %v", l.path, got, filled)
				}
				continue
			}
			want = "experiment: " + l.path + " must be "
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("LoadScenario with %s = %v: got error %v, want one containing %q", l.path, x, err, want)
			}
		}
	}
}
