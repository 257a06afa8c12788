// Package features defines the system-feature vectors collected from virtual
// machines, the feature database built by the F2PM monitoring agents, and the
// Remaining-Time-To-Failure (RTTF) labelling used to train the machine
// learning prediction models.
//
// In the paper a thin software client measures "a large set of system
// features, such as memory usage, CPU time, and swap space usage" on each
// monitored VM and ships them to a feature monitor agent, which builds a
// database for later use by the ML toolchain.  This package is that database.
package features

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Name identifies one monitored system feature.
type Name string

// The feature set collected from each VM.  It mirrors the kind of metrics
// F2PM gathers (memory, swap, CPU, threads, response time); the exact list is
// intentionally wider than what the models end up using, because part of the
// F2PM workflow is selecting the relevant subset via Lasso regularisation.
const (
	MemUsedMB        Name = "mem_used_mb"        // resident memory used by the server process
	MemFreeMB        Name = "mem_free_mb"        // free physical memory on the VM
	SwapUsedMB       Name = "swap_used_mb"       // swap space in use
	HeapMB           Name = "heap_mb"            // application heap footprint
	ThreadCount      Name = "thread_count"       // live threads in the server process
	ZombieThreads    Name = "zombie_threads"     // unterminated (leaked) threads
	CPUUtilization   Name = "cpu_utilization"    // [0,1] utilisation of the VM's vCPUs
	CPUTimeSec       Name = "cpu_time_s"         // cumulative CPU seconds consumed
	DiskUsedMB       Name = "disk_used_mb"       // virtual disk occupancy
	NetConnections   Name = "net_connections"    // open TCP connections
	RequestRate      Name = "request_rate"       // requests/second observed in the last interval
	ResponseTimeMs   Name = "response_time_ms"   // mean response time in the last interval
	QueueLength      Name = "queue_length"       // pending requests queued at the VM
	PageFaultRate    Name = "page_fault_rate"    // page faults/second
	ContextSwitches  Name = "context_switches"   // context switches/second
	UptimeSec        Name = "uptime_s"           // seconds since the last rejuvenation
	GCPauseMs        Name = "gc_pause_ms"        // garbage-collector pause time in the last interval
	OpenFiles        Name = "open_files"         // open file descriptors
	SocketsTimeWait  Name = "sockets_time_wait"  // sockets lingering in TIME_WAIT
	AnomalyEventRate Name = "anomaly_event_rate" // injected anomaly events/second (observable only in simulation)
)

// NumFeatures is the size of the monitored feature set, len(AllNames()).
const NumFeatures = 20

// allNames is the canonical feature order; Index must agree with it.
var allNames = [NumFeatures]Name{
	MemUsedMB, MemFreeMB, SwapUsedMB, HeapMB, ThreadCount, ZombieThreads,
	CPUUtilization, CPUTimeSec, DiskUsedMB, NetConnections, RequestRate,
	ResponseTimeMs, QueueLength, PageFaultRate, ContextSwitches, UptimeSec,
	GCPauseMs, OpenFiles, SocketsTimeWait, AnomalyEventRate,
}

// AllNames returns the canonical ordered list of feature names.  The order is
// stable so feature vectors can be flattened into ML design matrices
// deterministically.
func AllNames() []Name { return append([]Name(nil), allNames[:]...) }

// Index returns the slot of the named feature in AllNames order, and false
// for a name outside the feature set.  It is a compiled string switch, so the
// per-sample Set/Get path never hashes.
func Index(n Name) (int, bool) {
	switch n {
	case MemUsedMB:
		return 0, true
	case MemFreeMB:
		return 1, true
	case SwapUsedMB:
		return 2, true
	case HeapMB:
		return 3, true
	case ThreadCount:
		return 4, true
	case ZombieThreads:
		return 5, true
	case CPUUtilization:
		return 6, true
	case CPUTimeSec:
		return 7, true
	case DiskUsedMB:
		return 8, true
	case NetConnections:
		return 9, true
	case RequestRate:
		return 10, true
	case ResponseTimeMs:
		return 11, true
	case QueueLength:
		return 12, true
	case PageFaultRate:
		return 13, true
	case ContextSwitches:
		return 14, true
	case UptimeSec:
		return 15, true
	case GCPauseMs:
		return 16, true
	case OpenFiles:
		return 17, true
	case SocketsTimeWait:
		return 18, true
	case AnomalyEventRate:
		return 19, true
	}
	return -1, false
}

// Mask is a set of feature slots: bit i stands for AllNames()[i].  A
// consumer that reads only some features declares them as a Mask, so the
// sampler can skip measuring the rest.
type Mask uint32

// All is the mask of every feature.
const All Mask = 1<<NumFeatures - 1

// MaskOf returns the mask of the named features.  A name outside the
// feature set adds nothing: no slot holds it, and Get reads it as 0.
func MaskOf(names ...Name) Mask {
	var m Mask
	for _, n := range names {
		if i, ok := Index(n); ok {
			m |= 1 << i
		}
	}
	return m
}

// Vector is one sample of all monitored features at a given time on a given
// VM.  Its values live in a fixed array, so a Vector is a plain value: a copy
// never shares storage with its original and building one allocates nothing.
type Vector struct {
	// TimeS is the simulated timestamp of the sample in seconds.
	TimeS float64
	// VM identifies the virtual machine the sample was taken from.
	VM string
	// values holds one measurement per feature, in AllNames order.
	values [NumFeatures]float64
}

// NewVector returns an all-zero vector for the given VM and time.
func NewVector(vm string, timeS float64) Vector {
	return Vector{TimeS: timeS, VM: vm}
}

// Get returns the value of the named feature (0 when unset or unknown).
func (v Vector) Get(n Name) float64 {
	if i, ok := Index(n); ok {
		return v.values[i]
	}
	return 0
}

// Set stores the value of the named feature.  It panics on a name outside the
// feature set: a fixed-slot vector has nowhere to keep it, and silently
// dropping a measurement would hide the bug.
func (v *Vector) Set(n Name, val float64) {
	i, ok := Index(n)
	if !ok {
		panic(fmt.Sprintf("features: unknown feature %q", n))
	}
	v.values[i] = val
}

// SetSlot stores val in slot i, the feature AllNames()[i].  A sampler that
// has already looked up the slot with Index uses it to skip a second lookup.
func (v *Vector) SetSlot(i int, val float64) { v.values[i] = val }

// Flatten returns the values of the requested features in order.
func (v Vector) Flatten(names []Name) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = v.Get(n)
	}
	return out
}

// Sample couples a feature vector with its RTTF label (the time remaining
// until the VM hits its failure point, in seconds).  Labelled samples are
// what the F2PM toolchain trains on.
type Sample struct {
	Vector Vector
	// RTTFSeconds is the labelled Remaining Time To Failure.
	RTTFSeconds float64
}

// Dataset is the feature database: a labelled collection of samples plus the
// ordered list of features used when flattening to a design matrix.
type Dataset struct {
	Features []Name
	Samples  []Sample
}

// NewDataset returns an empty dataset over the given features (AllNames when
// nil).
func NewDataset(feats []Name) *Dataset {
	if feats == nil {
		feats = AllNames()
	}
	return &Dataset{Features: append([]Name(nil), feats...)}
}

// Add appends a labelled sample.
func (d *Dataset) Add(s Sample) { d.Samples = append(d.Samples, s) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Matrix flattens the dataset into a design matrix X (one row per sample, one
// column per feature) and the label vector y.
func (d *Dataset) Matrix() (x [][]float64, y []float64) {
	x = make([][]float64, len(d.Samples))
	y = make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		x[i] = s.Vector.Flatten(d.Features)
		y[i] = s.RTTFSeconds
	}
	return x, y
}

// Project returns a copy of the dataset restricted to the given feature
// subset (used after Lasso feature selection).
func (d *Dataset) Project(feats []Name) *Dataset {
	out := NewDataset(feats)
	out.Samples = d.Samples
	return out
}

// Split partitions the dataset into a training and a test set, putting the
// first trainFrac of samples (per VM, in time order) into the training set.
// Splitting by time rather than randomly mirrors how F2PM operates: models
// are trained on an initial profiling phase and used later at runtime.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	if trainFrac <= 0 {
		trainFrac = 0.7
	}
	if trainFrac >= 1 {
		trainFrac = 0.9
	}
	train = NewDataset(d.Features)
	test = NewDataset(d.Features)

	// Group sample indices by VM, preserving time order.
	byVM := map[string][]int{}
	var vms []string
	for i, s := range d.Samples {
		if _, ok := byVM[s.Vector.VM]; !ok {
			vms = append(vms, s.Vector.VM)
		}
		byVM[s.Vector.VM] = append(byVM[s.Vector.VM], i)
	}
	sort.Strings(vms)
	for _, vm := range vms {
		idx := byVM[vm]
		sort.Slice(idx, func(a, b int) bool {
			return d.Samples[idx[a]].Vector.TimeS < d.Samples[idx[b]].Vector.TimeS
		})
		cut := int(float64(len(idx)) * trainFrac)
		for j, i := range idx {
			if j < cut {
				train.Add(d.Samples[i])
			} else {
				test.Add(d.Samples[i])
			}
		}
	}
	return train, test
}

// VMs returns the distinct VM identifiers present in the dataset, sorted.
func (d *Dataset) VMs() []string {
	set := map[string]struct{}{}
	for _, s := range d.Samples {
		set[s.Vector.VM] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for vm := range set {
		out = append(out, vm)
	}
	sort.Strings(out)
	return out
}

// WriteCSV serialises the dataset as CSV: time, vm, features..., rttf.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"time_s", "vm"}
	for _, f := range d.Features {
		header = append(header, string(f))
	}
	header = append(header, "rttf_s")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range d.Samples {
		row := []string{
			strconv.FormatFloat(s.Vector.TimeS, 'g', 10, 64),
			s.Vector.VM,
		}
		for _, f := range d.Features {
			row = append(row, strconv.FormatFloat(s.Vector.Get(f), 'g', 10, 64))
		}
		row = append(row, strconv.FormatFloat(s.RTTFSeconds, 'g', 10, 64))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Header errors returned (wrapped) by ReadCSV.
var (
	// ErrUnknownFeature reports a feature column outside AllNames.
	ErrUnknownFeature = errors.New("features: unknown feature column")
	// ErrDuplicateFeature reports a feature column named twice.
	ErrDuplicateFeature = errors.New("features: duplicate feature column")
)

// ReadCSV parses a dataset previously written with WriteCSV.  A header naming
// a feature outside AllNames, or naming one twice, is rejected with
// ErrUnknownFeature or ErrDuplicateFeature.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 1 {
		return nil, fmt.Errorf("features: empty CSV")
	}
	header := rows[0]
	if len(header) < 3 || header[0] != "time_s" || header[1] != "vm" || header[len(header)-1] != "rttf_s" {
		return nil, fmt.Errorf("features: malformed header %v", header)
	}
	feats := make([]Name, 0, len(header)-3)
	seen := [NumFeatures]bool{}
	for _, h := range header[2 : len(header)-1] {
		i, ok := Index(Name(h))
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFeature, h)
		}
		if seen[i] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateFeature, h)
		}
		seen[i] = true
		feats = append(feats, Name(h))
	}
	d := NewDataset(feats)
	for li, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("features: row %d has %d columns, want %d", li+2, len(row), len(header))
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("features: row %d time: %w", li+2, err)
		}
		v := NewVector(row[1], t)
		for fi, f := range feats {
			val, err := strconv.ParseFloat(row[2+fi], 64)
			if err != nil {
				return nil, fmt.Errorf("features: row %d feature %s: %w", li+2, f, err)
			}
			v.Set(f, val)
		}
		rttf, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("features: row %d rttf: %w", li+2, err)
		}
		d.Add(Sample{Vector: v, RTTFSeconds: rttf})
	}
	return d, nil
}

// LabelRTTF assigns RTTF labels to an ordered sequence of per-VM feature
// vectors given the failure times of each VM.  Samples taken after the last
// known failure of their VM are dropped (their RTTF is unknown), mirroring how
// F2PM constructs its training database from observed failure/rejuvenation
// episodes.
func LabelRTTF(vectors []Vector, failures map[string][]float64) []Sample {
	// Sort each VM's failure times.
	sortedFailures := map[string][]float64{}
	for vm, ts := range failures {
		cp := append([]float64(nil), ts...)
		sort.Float64s(cp)
		sortedFailures[vm] = cp
	}
	var out []Sample
	for _, v := range vectors {
		fts := sortedFailures[v.VM]
		idx := sort.SearchFloat64s(fts, v.TimeS)
		if idx >= len(fts) {
			continue // no later failure observed: label unknown
		}
		out = append(out, Sample{Vector: v, RTTFSeconds: fts[idx] - v.TimeS})
	}
	return out
}
