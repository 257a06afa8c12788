package features

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sampleVector(vm string, t, mem float64) Vector {
	v := NewVector(vm, t)
	v.Set(MemUsedMB, mem)
	v.Set(ThreadCount, 100)
	v.Set(ResponseTimeMs, 50)
	return v
}

func TestVectorGetSetFlatten(t *testing.T) {
	v := NewVector("vm1", 10)
	v.Set(MemUsedMB, 512)
	v.Set(SwapUsedMB, 32)
	if v.Get(MemUsedMB) != 512 {
		t.Fatal("Get should return the stored value")
	}
	if v.Get(HeapMB) != 0 {
		t.Fatal("missing feature should read as 0")
	}
	flat := v.Flatten([]Name{MemUsedMB, SwapUsedMB, HeapMB})
	if flat[0] != 512 || flat[1] != 32 || flat[2] != 0 {
		t.Fatalf("flatten wrong: %v", flat)
	}
}

func TestVectorCopyDoesNotShareStorage(t *testing.T) {
	orig := NewVector("vm1", 0)
	orig.Set(MemUsedMB, 1)
	cp := orig
	cp.Set(MemUsedMB, 2)
	cp.Set(HeapMB, 3)
	if orig.Get(MemUsedMB) != 1 || orig.Get(HeapMB) != 0 {
		t.Fatalf("writing a copy changed the original: mem=%v heap=%v", orig.Get(MemUsedMB), orig.Get(HeapMB))
	}
	if cp.Get(MemUsedMB) != 2 || cp.Get(HeapMB) != 3 {
		t.Fatalf("copy lost its own writes: mem=%v heap=%v", cp.Get(MemUsedMB), cp.Get(HeapMB))
	}
}

func TestIndexMatchesAllNames(t *testing.T) {
	names := AllNames()
	if len(names) != NumFeatures {
		t.Fatalf("AllNames has %d names, NumFeatures = %d", len(names), NumFeatures)
	}
	for want, n := range names {
		if got, ok := Index(n); !ok || got != want {
			t.Fatalf("Index(%s) = %d, %v; want %d, true", n, got, ok, want)
		}
	}
	if _, ok := Index("no_such_feature"); ok {
		t.Fatal("Index accepted an unknown feature")
	}
	v := NewVector("vm1", 0)
	if v.Get("no_such_feature") != 0 {
		t.Fatal("unknown feature should read as 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set of an unknown feature should panic")
		}
	}()
	v.Set("no_such_feature", 1)
}

func TestMaskOf(t *testing.T) {
	if got := MaskOf(AllNames()...); got != All {
		t.Fatalf("MaskOf(AllNames()) = %b, want All = %b", got, All)
	}
	if got := MaskOf(MemUsedMB, RequestRate, "no_such_feature", RequestRate); got != 1<<0|1<<10 {
		t.Fatalf("MaskOf(mem_used_mb, request_rate, unknown, request_rate) = %b, want slots 0 and 10", got)
	}
	if MaskOf() != 0 {
		t.Fatal("the mask of no features should be empty")
	}
}

func TestSetSlotMatchesSet(t *testing.T) {
	bySlot, byName := NewVector("vm1", 0), NewVector("vm1", 0)
	for i, n := range AllNames() {
		bySlot.SetSlot(i, float64(i)+0.25)
		byName.Set(n, float64(i)+0.25)
	}
	if bySlot != byName {
		t.Fatalf("SetSlot %+v, Set %+v", bySlot, byName)
	}
}

func TestAllNamesStableAndUnique(t *testing.T) {
	names := AllNames()
	if len(names) < 15 {
		t.Fatalf("expected a wide feature set, got %d", len(names))
	}
	seen := map[Name]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %s", n)
		}
		seen[n] = true
	}
	// Calling twice must give the same order.
	again := AllNames()
	for i := range names {
		if names[i] != again[i] {
			t.Fatal("AllNames order must be stable")
		}
	}
}

func TestDatasetMatrix(t *testing.T) {
	d := NewDataset([]Name{MemUsedMB, ThreadCount})
	d.Add(Sample{Vector: sampleVector("vm1", 0, 100), RTTFSeconds: 300})
	d.Add(Sample{Vector: sampleVector("vm1", 10, 200), RTTFSeconds: 290})
	x, y := d.Matrix()
	if len(x) != 2 || len(y) != 2 {
		t.Fatalf("matrix size wrong: %d %d", len(x), len(y))
	}
	if x[1][0] != 200 || x[1][1] != 100 {
		t.Fatalf("matrix row wrong: %v", x[1])
	}
	if y[0] != 300 {
		t.Fatalf("label wrong: %f", y[0])
	}
}

func TestDatasetProject(t *testing.T) {
	d := NewDataset(nil)
	d.Add(Sample{Vector: sampleVector("vm1", 0, 100), RTTFSeconds: 10})
	p := d.Project([]Name{MemUsedMB})
	if len(p.Features) != 1 || p.Features[0] != MemUsedMB {
		t.Fatalf("projection features wrong: %v", p.Features)
	}
	x, _ := p.Matrix()
	if len(x[0]) != 1 || x[0][0] != 100 {
		t.Fatalf("projected matrix wrong: %v", x)
	}
}

func TestDatasetSplitByTimePerVM(t *testing.T) {
	d := NewDataset([]Name{MemUsedMB})
	for i := 0; i < 10; i++ {
		d.Add(Sample{Vector: sampleVector("vm1", float64(i), float64(i)), RTTFSeconds: 1})
		d.Add(Sample{Vector: sampleVector("vm2", float64(i), float64(i)), RTTFSeconds: 1})
	}
	train, test := d.Split(0.7)
	if train.Len() != 14 || test.Len() != 6 {
		t.Fatalf("split sizes wrong: %d/%d", train.Len(), test.Len())
	}
	// All training samples for a VM must precede its test samples in time.
	maxTrain := map[string]float64{}
	for _, s := range train.Samples {
		if s.Vector.TimeS > maxTrain[s.Vector.VM] {
			maxTrain[s.Vector.VM] = s.Vector.TimeS
		}
	}
	for _, s := range test.Samples {
		if s.Vector.TimeS <= maxTrain[s.Vector.VM] {
			t.Fatalf("test sample at t=%f precedes training cut %f for %s",
				s.Vector.TimeS, maxTrain[s.Vector.VM], s.Vector.VM)
		}
	}
	// Degenerate fractions are clamped.
	tr, te := d.Split(0)
	if tr.Len() == 0 || te.Len() == 0 {
		t.Fatal("clamped split should produce non-empty parts")
	}
	tr, te = d.Split(1.5)
	if tr.Len() == 0 {
		t.Fatal("clamped split should produce non-empty training set")
	}
	_ = te
}

func TestDatasetVMs(t *testing.T) {
	d := NewDataset(nil)
	d.Add(Sample{Vector: sampleVector("b", 0, 1)})
	d.Add(Sample{Vector: sampleVector("a", 0, 1)})
	d.Add(Sample{Vector: sampleVector("a", 1, 2)})
	vms := d.VMs()
	if len(vms) != 2 || vms[0] != "a" || vms[1] != "b" {
		t.Fatalf("VMs wrong: %v", vms)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset([]Name{MemUsedMB, ThreadCount, ResponseTimeMs})
	d.Add(Sample{Vector: sampleVector("vm1", 0, 100), RTTFSeconds: 300})
	d.Add(Sample{Vector: sampleVector("vm2", 5, 150), RTTFSeconds: 250})

	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || len(got.Features) != 3 {
		t.Fatalf("round trip lost data: %d samples, %d features", got.Len(), len(got.Features))
	}
	if got.Samples[1].Vector.VM != "vm2" || got.Samples[1].RTTFSeconds != 250 {
		t.Fatalf("round trip corrupted sample: %+v", got.Samples[1])
	}
	if got.Samples[0].Vector.Get(MemUsedMB) != 100 {
		t.Fatal("feature value lost in round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Fatal("bad header should error")
	}
	bad := "time_s,vm,mem_used_mb,rttf_s\nnot_a_number,vm1,1,2\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric time should error")
	}
	bad = "time_s,vm,mem_used_mb,rttf_s\n1,vm1,xx,2\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric feature should error")
	}
	bad = "time_s,vm,mem_used_mb,rttf_s\n1,vm1,1,yy\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric label should error")
	}
	bad = "time_s,vm,mem_used_mb,cpu_temp_c,rttf_s\n1,vm1,1,2,3\n"
	if _, err := ReadCSV(strings.NewReader(bad)); !errors.Is(err, ErrUnknownFeature) {
		t.Fatalf("unknown feature header: err = %v, want ErrUnknownFeature", err)
	}
	bad = "time_s,vm,mem_used_mb,mem_used_mb,rttf_s\n1,vm1,1,2,3\n"
	if _, err := ReadCSV(strings.NewReader(bad)); !errors.Is(err, ErrDuplicateFeature) {
		t.Fatalf("duplicate feature header: err = %v, want ErrDuplicateFeature", err)
	}
}

func TestLabelRTTF(t *testing.T) {
	vectors := []Vector{
		sampleVector("vm1", 10, 1),
		sampleVector("vm1", 50, 2),
		sampleVector("vm1", 150, 3), // after the only failure: dropped
		sampleVector("vm2", 10, 4),
	}
	failures := map[string][]float64{
		"vm1": {100},
		"vm2": {40, 20}, // unsorted on purpose
	}
	samples := LabelRTTF(vectors, failures)
	if len(samples) != 3 {
		t.Fatalf("expected 3 labelled samples, got %d", len(samples))
	}
	if samples[0].RTTFSeconds != 90 {
		t.Fatalf("vm1@10 RTTF should be 90, got %f", samples[0].RTTFSeconds)
	}
	if samples[1].RTTFSeconds != 50 {
		t.Fatalf("vm1@50 RTTF should be 50, got %f", samples[1].RTTFSeconds)
	}
	// vm2@10 should use the earliest later failure (20), not 40.
	if samples[2].RTTFSeconds != 10 {
		t.Fatalf("vm2@10 RTTF should be 10, got %f", samples[2].RTTFSeconds)
	}
}

func TestLabelRTTFNoFailures(t *testing.T) {
	samples := LabelRTTF([]Vector{sampleVector("vm1", 0, 1)}, map[string][]float64{})
	if len(samples) != 0 {
		t.Fatal("samples with no later failure must be dropped")
	}
}
