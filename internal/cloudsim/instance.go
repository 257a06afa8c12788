// Package cloudsim simulates the heterogeneous multi-cloud testbed used by
// the paper's evaluation: virtual machines of different instance types hosted
// in geographically distinct cloud regions, running a server replica that
// accumulates software anomalies (memory leaks and unterminated threads) as it
// processes client requests, degrades, eventually violates its failure point,
// and is proactively rejuvenated by the PCAM layer.
//
// The paper evaluates on Amazon EC2 m3.medium instances in Ireland, m3.small
// instances in Frankfurt, and privately hosted VMware VMs in Munich.  We do
// not have that testbed, so this package provides the closest synthetic
// equivalent: a discrete-event model of VMs whose service capacity, memory
// budget and anomaly behaviour reproduce the heterogeneity that the
// load-balancing policies have to cope with.
package cloudsim

import (
	"fmt"

	"repro/internal/simclock"
)

// InstanceType describes the hardware envelope of a virtual machine class.
// The capacity fields feed the service-time model; the memory and thread
// budgets bound how many anomalies a VM can absorb before hitting its failure
// point.
type InstanceType struct {
	// Name is the provider-facing type name, e.g. "m3.medium".
	Name string
	// VCPUs is the number of virtual CPU cores (RegionConfig.WithDefaults
	// fills 0 with 1).
	VCPUs int `domain:">0"`
	// ClockGHz is the nominal per-core clock, used as a relative speed factor.
	ClockGHz float64 `domain:">=0"`
	// MemoryMB is the physical memory available to the guest.  It has no
	// default: a VM with no memory fails on its first leak.
	MemoryMB float64 `domain:">0"`
	// DiskGB is the virtual disk size.
	DiskGB float64 `domain:">=0"`
	// BaseServiceMs is the mean service demand of one TPC-W request on a
	// single core of this instance when the VM is anomaly-free.
	BaseServiceMs float64 `domain:">=0"`
	// MaxThreads is the thread budget of the server process; unterminated
	// threads count against it.  It has no default: a VM with no thread
	// budget fails on its first thread leak.
	MaxThreads int `domain:">0"`
	// CostPerHour is the on-demand price in USD (0 for privately hosted VMs).
	// It is not used by the policies but reported by the cost accounting
	// helpers, mirroring the paper's motivation that heterogeneous regions may
	// be chosen for cost reasons.
	CostPerHour float64 `domain:">=0"`
}

// The instance types used in the paper's testbed (Section VI-A).  The numbers
// are the published EC2 specifications of the era; BaseServiceMs is calibrated
// so that an m3.medium serves a TPC-W interaction in roughly 40 ms when
// healthy, with the other types scaled by core count and clock.
var (
	// M3Medium is the Amazon EC2 m3.medium instance: 1 vCPU, 3.75 GB RAM.
	// Region 1 (Ireland) hosts six of them.
	M3Medium = InstanceType{
		Name:          "m3.medium",
		VCPUs:         1,
		ClockGHz:      2.5,
		MemoryMB:      3750,
		DiskGB:        4,
		BaseServiceMs: 40,
		MaxThreads:    2048,
		CostPerHour:   0.073,
	}

	// M3Small is the smaller Amazon EC2 instance used in Region 2
	// (Frankfurt): 1 vCPU, 1.7 GB RAM, slower clock.  The paper names it
	// "m3.small"; the published specification matches the small tier of the
	// m1/m3 families of the time.
	M3Small = InstanceType{
		Name:          "m3.small",
		VCPUs:         1,
		ClockGHz:      2.0,
		MemoryMB:      1700,
		DiskGB:        4,
		BaseServiceMs: 55,
		MaxThreads:    1024,
		CostPerHour:   0.047,
	}

	// PrivateVM is the privately hosted VMware VM used in Region 3 (Munich):
	// 2 virtual CPU cores, 1 GB RAM, 4 GB disk, hosted on a 32-core HP
	// ProLiant server running VMware Workstation (a desktop hypervisor, hence
	// the noticeably higher per-request service demand compared to EC2).
	PrivateVM = InstanceType{
		Name:          "private-2c-1g",
		VCPUs:         2,
		ClockGHz:      2.0,
		MemoryMB:      1024,
		DiskGB:        4,
		BaseServiceMs: 70,
		MaxThreads:    768,
		CostPerHour:   0,
	}
)

// RelativeSpeed returns the instance's aggregate compute power relative to a
// single 2.5 GHz core, the unit the service-time model is calibrated against.
func (it InstanceType) RelativeSpeed() float64 {
	return float64(it.VCPUs) * it.ClockGHz / 2.5
}

// String returns a compact description of the instance type.
func (it InstanceType) String() string {
	return fmt.Sprintf("%s(%dvCPU,%.1fGHz,%.0fMB)", it.Name, it.VCPUs, it.ClockGHz, it.MemoryMB)
}

// AnomalyProfile controls how software anomalies are injected while serving
// requests, mirroring the paper's modified TPC-W implementation: "10% of
// requests generate a memory leak, 5% of requests generate an unterminated
// thread".
type AnomalyProfile struct {
	// LeakProbability is the per-request probability of leaking memory.
	LeakProbability float64 `domain:"[0,1]"`
	// LeakSizeMB is the mean size of one leak; the actual size is drawn from
	// an exponential distribution with this mean.
	LeakSizeMB float64 `domain:">=0"`
	// ThreadProbability is the per-request probability of leaving an
	// unterminated thread behind.
	ThreadProbability float64 `domain:"[0,1]"`
	// ThreadStackMB is the memory pinned by each unterminated thread.
	ThreadStackMB float64 `domain:">=0"`
}

// IsZero reports whether the profile is entirely unset, in which case
// RegionConfig.WithDefaults substitutes the paper's defaults.  It compares
// field by field instead of using == so the struct stays free to grow
// non-comparable fields (e.g. a per-class probability slice) later.
func (a AnomalyProfile) IsZero() bool {
	return a.LeakProbability == 0 && a.LeakSizeMB == 0 &&
		a.ThreadProbability == 0 && a.ThreadStackMB == 0
}

// DefaultAnomalyProfile reproduces the injection probabilities from Section
// VI-A of the paper.
func DefaultAnomalyProfile() AnomalyProfile {
	return AnomalyProfile{
		LeakProbability:   0.10,
		LeakSizeMB:        1.5,
		ThreadProbability: 0.05,
		ThreadStackMB:     0.5,
	}
}

// FailurePoint defines when a VM is considered failed.  Following F2PM, the
// failure point is user-defined and "not necessarily related to an actual
// crash": it can be an SLA violation such as the response time exceeding a
// threshold.
type FailurePoint struct {
	// MemoryFraction is the fraction of the instance memory that, once
	// consumed by leaks and zombie-thread stacks, marks the VM as failed
	// (out-of-memory crash of the server process).
	MemoryFraction float64 `domain:"[0,1]"`
	// ThreadFraction is the fraction of the thread budget that, once consumed
	// by unterminated threads, marks the VM as failed.
	ThreadFraction float64 `domain:"[0,1]"`
	// ResponseTimeSLAMs is the response-time SLA in milliseconds; sustained
	// violation (tracked by the VM as an EWMA of observed response times)
	// also marks the VM as failed.  Zero disables the SLA clause.
	ResponseTimeSLAMs float64 `domain:">=0"`
}

// IsZero reports whether the failure point is entirely unset (see
// AnomalyProfile.IsZero for why this is a method rather than a == check).
func (f FailurePoint) IsZero() bool {
	return f.MemoryFraction == 0 && f.ThreadFraction == 0 && f.ResponseTimeSLAMs == 0
}

// DefaultFailurePoint matches the evaluation setup: the server process can
// absorb leaks up to 70% of the instance memory (the rest is needed by the OS,
// MySQL buffer pool and the servlet container), 80% of the thread budget, and
// the paper's 1-second response-time SLA.
func DefaultFailurePoint() FailurePoint {
	return FailurePoint{
		MemoryFraction:    0.70,
		ThreadFraction:    0.80,
		ResponseTimeSLAMs: 1000,
	}
}

// RejuvenationModel describes how long the rejuvenation of a VM takes and how
// long activating a standby VM takes.  In the paper the VMC sends a
// REJUVENATE command to the about-to-fail VM and an ACTIVATE command to a
// standby VM; both operations have non-negligible latency which is the source
// of the "overhead due to rejuvenation" the policies try to balance.
type RejuvenationModel struct {
	// RejuvenateDuration is the time to restart the server replica and clear
	// the accumulated anomalies.
	RejuvenateDuration simclock.Duration `domain:">=0"`
	// ActivateDuration is the time for a STANDBY VM to become ACTIVE (warm-up
	// of caches, registration with the local load balancer).
	ActivateDuration simclock.Duration `domain:">=0"`
}

// IsZero reports whether the model is entirely unset (see
// AnomalyProfile.IsZero for why this is a method rather than a == check).
func (m RejuvenationModel) IsZero() bool {
	return m.RejuvenateDuration == 0 && m.ActivateDuration == 0
}

// DefaultRejuvenationModel reflects the order of magnitude observed for
// restarting a servlet container plus MySQL connections: about two minutes to
// rejuvenate, a few seconds to activate a warm standby.
func DefaultRejuvenationModel() RejuvenationModel {
	return RejuvenationModel{
		RejuvenateDuration: 120 * simclock.Second,
		ActivateDuration:   5 * simclock.Second,
	}
}
