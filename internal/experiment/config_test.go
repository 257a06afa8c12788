package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/acm"
	"repro/internal/backend"
	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	orig := Figure4Scenario(123)
	orig.VMC.ElasticityEnabled = true
	orig.Regions[0].SurgeClients = 100
	orig.Regions[0].SurgeAt = 20 * simclock.Minute

	var buf bytes.Buffer
	if err := SaveScenario(&buf, orig); err != nil {
		t.Fatalf("SaveScenario: %v", err)
	}
	if !strings.Contains(buf.String(), "\"region2\"") || !strings.Contains(buf.String(), "m3.small") {
		t.Fatalf("serialised scenario should mention the regions and instance types:\n%s", buf.String())
	}

	loaded, err := LoadScenario(&buf)
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	if loaded.Name != orig.Name || loaded.Seed != orig.Seed {
		t.Fatalf("identity fields lost: %+v", loaded)
	}
	if len(loaded.Regions) != 3 || loaded.Regions[0].Clients != orig.Regions[0].Clients {
		t.Fatalf("regions lost in round trip")
	}
	if loaded.Regions[0].SurgeClients != 100 || loaded.Regions[0].SurgeAt != 20*simclock.Minute {
		t.Fatalf("surge configuration lost in round trip: %+v", loaded.Regions[0])
	}
	if !loaded.VMC.ElasticityEnabled {
		t.Fatalf("VMC configuration lost in round trip")
	}
	if loaded.Horizon != orig.Horizon || loaded.Beta != orig.Beta {
		t.Fatalf("loop parameters lost in round trip")
	}
}

func TestLoadScenarioValidation(t *testing.T) {
	if _, err := LoadScenario(strings.NewReader("{nonsense")); err == nil {
		t.Errorf("malformed JSON should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x"}`)); err == nil {
		t.Errorf("a scenario without regions should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x","Regions":[{"Clients":10}]}`)); err == nil {
		t.Errorf("a region without a name should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x","Regions":[{"Region":{"Name":"r"},"Clients":10}]}`)); err == nil {
		t.Errorf("a region without an instance type should be rejected")
	}
	if _, err := LoadScenario(strings.NewReader(`{"Name":"x","Unknown":1}`)); err == nil {
		t.Errorf("unknown fields should be rejected")
	}
	// A β outside (0, 1] is rejected by name instead of being reset to the
	// default, as the -beta flag already is; 0 still means unset.
	region := `"Regions":[{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"MaxThreads":2048}},"Clients":10}]`
	for _, beta := range []string{"3", "-1", "1.5"} {
		_, err := LoadScenario(strings.NewReader(`{"Name":"x","Beta":` + beta + `,` + region + `}`))
		if want := "experiment: Beta must be in (0, 1], got " + beta; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Beta %s: got error %v, want %q", beta, err, want)
		}
	}
	for _, beta := range []string{"0", "1", "0.25"} {
		if _, err := LoadScenario(strings.NewReader(`{"Name":"x","Beta":` + beta + `,` + region + `}`)); err != nil {
			t.Errorf("Beta %s should load: %v", beta, err)
		}
	}
}

// TestLoadScenarioMixRejectedByRun: a scenario file whose region mix names
// no interactions loads (mixes are checked where the deployment is built),
// and Run then rejects it by field instead of panicking on the first
// request's draw.
func TestLoadScenarioMixRejectedByRun(t *testing.T) {
	sc, err := LoadScenario(strings.NewReader(`{"Name":"x","Horizon":60,"Regions":[{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"MaxThreads":2048},"InitialActive":1},"Clients":4,"Mix":{"Name":"empty","Entries":[]}}]}`))
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	_, err = Run(sc, Policies()[0])
	if err == nil || !strings.Contains(err.Error(), `acm: Regions[0].Mix is invalid: workload: Mix.Entries of mix "empty" is empty`) {
		t.Fatalf("Run of a scenario with an empty region mix: got %v, want the Regions[0].Mix error", err)
	}
}

// TestUnknownBackendRejected pins the one backend: a scenario's Backend ""
// or "sim" loads and builds the simulator, and any other value is rejected
// with ErrUnknownBackend by LoadScenario and by NewBackend, naming the value.
func TestUnknownBackendRejected(t *testing.T) {
	region := `"Regions":[{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"MaxThreads":2048}},"Clients":10}]`
	for _, kind := range []string{"", "sim"} {
		sc, err := LoadScenario(strings.NewReader(`{"Name":"x","Backend":"` + kind + `",` + region + `}`))
		if err != nil {
			t.Fatalf("Backend %q should load: %v", kind, err)
		}
		if sc.Backend != kind {
			t.Fatalf("Backend %q loaded as %q", kind, sc.Backend)
		}
		q := quickScenario(1)
		q.Backend = kind
		b, err := NewBackend(q, Policies()[0])
		if err != nil {
			t.Fatalf("NewBackend with Backend %q: %v", kind, err)
		}
		if _, ok := b.(*backend.Simulated); !ok {
			t.Fatalf("NewBackend with Backend %q = %T, want *backend.Simulated", kind, b)
		}
	}
	_, err := LoadScenario(strings.NewReader(`{"Name":"x","Backend":"live",` + region + `}`))
	if !errors.Is(err, ErrUnknownBackend) || !strings.Contains(err.Error(), `"live"`) {
		t.Fatalf("LoadScenario with Backend \"live\": got %v, want ErrUnknownBackend naming it", err)
	}
	q := quickScenario(1)
	q.Backend = "live"
	for name, build := range map[string]func() error{
		"NewBackend": func() error { _, err := NewBackend(q, Policies()[0]); return err },
		"NewManager": func() error { _, err := NewManager(q, Policies()[0]); return err },
	} {
		if err := build(); !errors.Is(err, ErrUnknownBackend) || !strings.Contains(err.Error(), `"live"`) {
			t.Fatalf("%s with Backend \"live\": got %v, want ErrUnknownBackend naming it", name, err)
		}
	}
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value: one element per slice and map, 0.25 for floats (a valid β) and "x"
// for strings (a valid region and instance-type name).
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.Map:
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(key)
		fillNonZero(elem)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(key, elem)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i))
			}
		}
	}
}

// TestScenarioJSONCarriesEveryConfigField sets every acm.Config field a
// scenario file can hold to a non-zero value and checks that each survives
// SaveScenario -> LoadScenario, so a field added to acm.Config later is
// settable from a file without a second edit.
func TestScenarioJSONCarriesEveryConfigField(t *testing.T) {
	var orig Scenario
	origV := reflect.ValueOf(&orig).Elem()
	cfgT := reflect.TypeOf(acm.Config{})
	var names []string
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		if name == "Policy" {
			continue
		}
		f := origV.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("a scenario file cannot set acm.Config.%s", name)
			continue
		}
		fillNonZero(f)
		names = append(names, name)
	}
	var buf bytes.Buffer
	if err := SaveScenario(&buf, orig); err != nil {
		t.Fatalf("SaveScenario: %v", err)
	}
	loaded, err := LoadScenario(&buf)
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	loadedV := reflect.ValueOf(loaded)
	for _, name := range names {
		if got, want := loadedV.FieldByName(name).Interface(), origV.FieldByName(name).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s lost in round trip: got %+v, want %+v", name, got, want)
		}
	}
}

// TestScenarioFileCompatibility loads a file -dump-config wrote for
// global-gossip (seed 42) before Scenario embedded acm.Config.  Embedding
// moved keys around but renamed none, so it must load unchanged, and
// today's dump must carry exactly its keys plus the three fields a file
// could not set before and the two fault lists added since.
// RequestTimeout, one of the four such fields once, is gone from
// acm.Config, so a file that sets it is rejected as an unknown key.
func TestScenarioFileCompatibility(t *testing.T) {
	path := filepath.Join("testdata", "global-gossip-scenario.json")
	got, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildScenario("global-gossip", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v\nwant %+v", got, want)
	}

	topKeys := func(raw []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return keys
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveScenario(&buf, want); err != nil {
		t.Fatal(err)
	}
	wantKeys := append(topKeys(old), "GlobalMix", "InitialAgeSpread", "MLProfile", "ControllerFaults", "OverlayFaults")
	slices.Sort(wantKeys)
	if gotKeys := topKeys(buf.Bytes()); !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("dump keys %v\nwant %v", gotKeys, wantKeys)
	}
	withTimeout := bytes.Replace(old, []byte("{"), []byte(`{"RequestTimeout": 5,`), 1)
	if _, err := LoadScenario(bytes.NewReader(withTimeout)); err == nil || !strings.Contains(err.Error(), "RequestTimeout") {
		t.Fatalf("a file setting RequestTimeout loaded with error %v, want it rejected by name", err)
	}
}

// FuzzLoadScenario feeds arbitrary bytes to LoadScenario, seeded with the
// dump of every registered scenario: it must never panic, and any scenario
// it accepts must be a fixed point of SaveScenario -> LoadScenario.
func FuzzLoadScenario(f *testing.F) {
	for _, name := range ScenarioNames() {
		sc, err := BuildScenario(name, 42)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveScenario(&buf, sc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A valid minimal file, then the values that once panicked or ran
	// silently past the loader: Clients -1, BaseServiceMs -5, ThinkTime -1
	// and MaxShards+1 shards.
	minimal := `{"Name":"x","ThinkTime":%d,"Regions":[{"Region":{"Name":"r",` +
		`"Type":{"Name":"m3.medium","MemoryMB":3750,"BaseServiceMs":%d,"MaxThreads":2048},"InitialActive":1,"Shards":%d},"Clients":%d}]}`
	for _, v := range [][4]any{{7, 40, 1, 4}, {7, 40, 1, -1}, {7, -5, 1, 4}, {-1, 40, 1, 4}, {7, 40, cloudsim.MaxShards + 1, 4}} {
		f.Add([]byte(fmt.Sprintf(minimal, v[:]...)))
	}
	// The paper's three regions with a controller failure and an overlay
	// link cut, as the failover example schedules them.
	f.Add([]byte(`{"Name":"failover","Regions":[` +
		`{"Region":{"Name":"region1","Type":{"Name":"m3.medium","MemoryMB":3750,"BaseServiceMs":40,"MaxThreads":2048},"InitialActive":2},"Clients":8},` +
		`{"Region":{"Name":"region2","Type":{"Name":"m3.small","MemoryMB":1700,"BaseServiceMs":60,"MaxThreads":1024},"InitialActive":2},"Clients":8},` +
		`{"Region":{"Name":"region3","Type":{"Name":"private","MemoryMB":1024,"BaseServiceMs":50,"MaxThreads":768},"InitialActive":2},"Clients":8}],` +
		`"ControllerFaults":[{"Region":"region2","At":1200,"Duration":900}],` +
		`"OverlayFaults":[{"A":"region1","B":"region3","At":900,"Duration":1500}]}`))
	// The -1 that switches the initial-age stagger off, and a failure point
	// whose 0 switches the SLA clause off: the fill runs on every load and
	// save, and must keep both, where a 0 would come back as a default.
	region := `{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"BaseServiceMs":40,"MaxThreads":2048},"InitialActive":1%s},"Clients":4}`
	f.Add([]byte(`{"Name":"nostagger","InitialAgeSpread":-1,"Regions":[` + fmt.Sprintf(region, "") + `]}`))
	f.Add([]byte(`{"Name":"nosla","Regions":[` + fmt.Sprintf(region, `,"Failure":{"MemoryFraction":0.7,"ThreadFraction":0.8,"ResponseTimeSLAMs":0}`) + `]}`))
	// A fuzzed scenario is only loaded and saved, never built or run: its
	// client and VM counts are unbounded.
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, l := range numericLeaves(reflect.ValueOf(&sc).Elem(), "", "") {
			if in, _ := inDomain(l.tag, l.float()); !in {
				t.Fatalf("LoadScenario accepted %s = %v outside its domain %q", l.path, l.float(), l.tag)
			}
		}
		var buf bytes.Buffer
		if err := SaveScenario(&buf, sc); err != nil {
			t.Fatalf("SaveScenario of an accepted scenario: %v", err)
		}
		saved := buf.String()
		back, err := LoadScenario(&buf)
		if err != nil {
			t.Fatalf("reloading an accepted scenario: %v\n%s", err, saved)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("not a fixed point of save -> load:\n%+v\nvs\n%+v", back, sc)
		}
	})
}

func TestLoadScenarioAppliesDefaults(t *testing.T) {
	raw := `{"Name":"minimal","Regions":[{"Region":{"Name":"r1","Type":{"Name":"m3.medium","VCPUs":1,"ClockGHz":2.5,"MemoryMB":3750,"BaseServiceMs":40,"MaxThreads":2048},"InitialActive":2},"Clients":32}]}`
	sc, err := LoadScenario(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	if sc.Horizon != 2*simclock.Hour || sc.Beta != 0.5 || sc.ControlInterval != 60*simclock.Second {
		t.Fatalf("defaults not applied: %+v", sc)
	}
	if sc.Predictor != acm.PredictorOracle {
		t.Fatalf("default predictor not applied")
	}
}

func TestScenarioFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	orig := Figure3Scenario(7)
	if err := SaveScenarioFile(path, orig); err != nil {
		t.Fatalf("SaveScenarioFile: %v", err)
	}
	loaded, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatalf("LoadScenarioFile: %v", err)
	}
	if loaded.Name != orig.Name || len(loaded.Regions) != len(orig.Regions) {
		t.Fatalf("file round trip lost data")
	}
	if _, err := LoadScenarioFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatalf("loading a missing file should fail")
	}
	// A loaded scenario must actually run.
	loaded.Horizon = 10 * simclock.Minute
	loaded.Regions[0].Clients = 40
	loaded.Regions[1].Clients = 20
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatalf("PolicyByKey: %v", err)
	}
	if _, err := Run(loaded, np); err != nil {
		t.Fatalf("running a loaded scenario failed: %v", err)
	}
}

// TestRunRejectsOutOfDomainScenario: Run once ran a β of 1.7 or -0.5 as the
// default 0.5 and judged a NaN tail fraction converged; every value outside
// its field's domain is now an error naming the field.
func TestRunRejectsOutOfDomainScenario(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		set  func(*Scenario)
		want string
	}{
		{func(s *Scenario) { s.Beta = 1.7 }, "acm: Beta must be in (0, 1], got 1.7"},
		{func(s *Scenario) { s.Beta = -0.5 }, "acm: Beta must be in (0, 1], got -0.5"},
		{func(s *Scenario) { s.TailFraction = nan }, "experiment: TailFraction must be in (0, 1], got NaN"},
		{func(s *Scenario) { s.ConvergenceTolerance = nan }, "experiment: ConvergenceTolerance must be > 0, got NaN"},
		{func(s *Scenario) { s.Horizon = simclock.Duration(nan) }, "experiment: Horizon must be > 0, got NaN"},
	} {
		sc := quickScenario(1)
		sc.Horizon = 2 * simclock.Minute
		tc.set(&sc)
		if _, err := Run(sc, Policies()[0]); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got error %v, want %q", err, tc.want)
		}
	}
}
