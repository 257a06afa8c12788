// Scripted faults: every fault a run suffers is data in Config, one list per
// kind — region outages (Faults), stream-to-region path degradations
// (LinkFaults), gossip partitions (PartitionFaults), region-controller
// failures (ControllerFaults) and overlay-link cuts (OverlayFaults).  Each
// entry is a window on the control timeline: it starts at At and is restored
// Duration later, or never for a zero Duration.  Validation names every
// entry whose target does not exist, and rejects two windows of one kind that
// overlap on one target, since their start/restore pairs would interleave.
package acm

import (
	"fmt"

	"repro/internal/simclock"
	"repro/internal/validate"
)

// RegionFault scripts one region outage for failover experiments: at time At
// the region's controller target is forced down to KeepActive ACTIVE VMs
// (the excess deactivates immediately, in-flight requests drain), and after
// Duration the previous target is restored so the next control tick
// repromotes the pool.  KeepActive = 0 blacks the region out completely.
type RegionFault struct {
	// Region names the region to fault.
	Region string
	// At is when the outage starts.
	At simclock.Duration `domain:">=0"`
	// Duration is how long the outage lasts; zero makes it permanent.
	Duration simclock.Duration `domain:">=0"`
	// KeepActive is the number of ACTIVE VMs left during the outage.
	KeepActive int `domain:">=0"`
}

// LinkFault scripts one network-path degradation for latency-routing
// experiments: at time At the ground-truth round trip between one population
// stream and one region is multiplied by Factor (2 = the classic submarine
// cable cut forcing traffic the long way round), and after Duration the
// previous value is restored; zero Duration makes the cut permanent.  The
// director is never told — it learns the new RTT passively from observed
// completions, which is exactly the traffic shift the cable-cut scenarios
// pin.  Requires a latency-aware GSLB config with an RTT row for Stream.
type LinkFault struct {
	// Stream names the population stream whose path degrades ("global" for
	// the director-attached browsers/cohorts, or a global arrival name).
	Stream string
	// Region names the region at the far end of the path.
	Region string
	// At is when the degradation starts.
	At simclock.Duration `domain:">=0"`
	// Duration is how long it lasts; zero makes it permanent.
	Duration simclock.Duration `domain:">=0"`
	// Factor multiplies the path's RTT (2 doubles it, 0.5 would model a
	// better route coming up).
	Factor float64 `domain:">0"`
}

// PartitionFault scripts one network partition of the gossip health plane:
// at time At the listed replicas are cut off from the rest (cross-side
// gossip messages are dropped), and after Duration the plane heals and the
// sides reconcile.  During the cut each side keeps converging internally,
// so lanes homed to the isolated replicas route on views frozen at the
// split — the split-brain behaviour the global-partition scenario pins.
// Zero Duration makes the partition permanent.
type PartitionFault struct {
	// At is when the partition starts.
	At simclock.Duration `domain:">=0"`
	// Duration is how long it lasts; zero makes it permanent.
	Duration simclock.Duration `domain:">=0"`
	// Replicas lists the replica indices forming the isolated side; the
	// remaining replicas form the other.  Both sides must be non-empty.
	Replicas []int `domain:">=0"`
}

// ControllerFault scripts one region-controller failure, the fault the
// paper's leader election answers: at time At the region's controller drops
// off the overlay, so it neither votes nor leads, the leader reads no RMTTF
// from it, and requests the plan forwards to its region stay in their entry
// region.  The surviving controllers re-elect at once.  After Duration the
// controller recovers and the election runs again.  Zero Duration makes the
// failure permanent.
type ControllerFault struct {
	// Region names the region whose controller fails.
	Region string
	// At is when the controller fails.
	At simclock.Duration `domain:">=0"`
	// Duration is how long it stays down; zero makes it permanent.
	Duration simclock.Duration `domain:">=0"`
}

// OverlayFault scripts one overlay-link failure, the fault the paper's
// overlay rerouting answers: at time At the link between overlay nodes A and
// B goes down, so control messages and forwarded requests take the shortest
// live path that is left (a forwarded request stays in its entry region when
// none is), and the election reruns in case the cut split the controllers.
// After Duration the link comes back.  Zero Duration makes the cut
// permanent.  A link has no direction: (A, B) and (B, A) name the same one.
type OverlayFault struct {
	// A and B name the link's end nodes: region controllers, or relay nodes
	// of the overlay ("transit-ams" in the paper overlay).
	A, B string
	// At is when the link fails.
	At simclock.Duration `domain:">=0"`
	// Duration is how long it stays down; zero makes it permanent.
	Duration simclock.Duration `domain:">=0"`
}

// faultWindow is what the overlap check reads of one scripted fault: the
// target it acts on, as the error names it, and its window.
type faultWindow struct {
	target  string
	at, dur simclock.Duration
}

func (f RegionFault) window() faultWindow {
	return faultWindow{"region " + f.Region, f.At, f.Duration}
}

func (f LinkFault) window() faultWindow {
	return faultWindow{f.Stream + ":" + f.Region, f.At, f.Duration}
}

// The plane holds one partition state, so every partition acts on it.
func (f PartitionFault) window() faultWindow {
	return faultWindow{"the gossip plane", f.At, f.Duration}
}

func (f ControllerFault) window() faultWindow {
	return faultWindow{"controller " + f.Region, f.At, f.Duration}
}

func (f OverlayFault) window() faultWindow {
	a, b := f.A, f.B
	if a > b {
		a, b = b, a
	}
	return faultWindow{"link " + a + "-" + b, f.At, f.Duration}
}

// validateFaults rejects a fault schedule the deployment cannot realise,
// naming the offending entry.  It runs after validateGossip, which rejects
// PartitionFaults on a plane of fewer than two replicas.
func (m *Manager) validateFaults() error {
	cfg := m.cfg
	for i, f := range cfg.Faults {
		if _, ok := m.regionIndex[f.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("Faults[%d].Region", i), "names unknown region %q", f.Region)
		}
	}
	if err := checkOverlaps("Faults", cfg.Faults); err != nil {
		return err
	}
	if len(cfg.LinkFaults) > 0 && !cfg.GSLB.LatencyAware() {
		return validate.Fieldf("acm", "LinkFaults", "require a latency-aware GSLB config (latency policy or an RTT matrix)")
	}
	streamKnown := map[string]bool{}
	for _, s := range m.globalStreamNames() {
		streamKnown[s] = true
	}
	for i, f := range cfg.LinkFaults {
		if !streamKnown[f.Stream] {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d].Stream", i), "names unknown population stream %q", f.Stream)
		}
		if _, ok := m.regionIndex[f.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d].Region", i), "names unknown region %q", f.Region)
		}
		if len(cfg.GSLB.RTT[f.Stream]) == 0 {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d]", i), "degrades stream %q, which has no GSLB.RTT row (the ground-truth path would stay at 0 ms)", f.Stream)
		}
	}
	if err := checkOverlaps("LinkFaults", cfg.LinkFaults); err != nil {
		return err
	}
	for i, f := range cfg.PartitionFaults {
		if len(f.Replicas) == 0 || len(f.Replicas) >= cfg.GossipReplicas {
			return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d].Replicas", i), "must isolate between 1 and %d replicas, got %d", cfg.GossipReplicas-1, len(f.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range f.Replicas {
			if r >= cfg.GossipReplicas {
				return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d].Replicas", i), "names replica %d outside [0, %d)", r, cfg.GossipReplicas)
			}
			if seen[r] {
				return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d].Replicas", i), "lists replica %d twice", r)
			}
			seen[r] = true
		}
	}
	if err := checkOverlaps("PartitionFaults", cfg.PartitionFaults); err != nil {
		return err
	}
	for i, f := range cfg.ControllerFaults {
		if _, ok := m.regionIndex[f.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("ControllerFaults[%d].Region", i), "names unknown region %q", f.Region)
		}
	}
	if err := checkOverlaps("ControllerFaults", cfg.ControllerFaults); err != nil {
		return err
	}
	for i, f := range cfg.OverlayFaults {
		for _, end := range []struct{ field, node string }{{"A", f.A}, {"B", f.B}} {
			if !m.net.HasNode(end.node) {
				return validate.Fieldf("acm", fmt.Sprintf("OverlayFaults[%d].%s", i, end.field), "names unknown overlay node %q", end.node)
			}
		}
		if !m.net.HasLink(f.A, f.B) {
			return validate.Fieldf("acm", fmt.Sprintf("OverlayFaults[%d]", i), "names %s-%s, which no overlay link joins", f.A, f.B)
		}
	}
	return checkOverlaps("OverlayFaults", cfg.OverlayFaults)
}

// checkOverlaps rejects two faults of one kind whose windows overlap on one
// target (see windowsOverlap), naming both by index.
func checkOverlaps[F interface{ window() faultWindow }](field string, faults []F) error {
	for i, f := range faults {
		w := f.window()
		for j, g := range faults[:i] {
			if v := g.window(); v.target == w.target && windowsOverlap(v.at, v.dur, w.at, w.dur) {
				return validate.Fieldf("acm", field, "%d and %d overlap on %s (a permanent fault conflicts with any later one)", j, i, w.target)
			}
		}
	}
	return nil
}

// windowsOverlap reports whether two scripted faults on one target, each
// starting at At and restored Duration later (never, for a zero Duration),
// conflict.  A permanent fault conflicts with any later one.  Back-to-back
// faults (one starting the instant the other restores) conflict too: the
// engine's same-timestamp FIFO order would run the second start before the
// first restore.
func windowsOverlap(aAt, aDur, bAt, bDur simclock.Duration) bool {
	if bAt < aAt {
		aAt, aDur, bAt = bAt, bDur, aAt
	}
	return aDur == 0 || bAt <= aAt+aDur
}

// scheduleFaults arms every scripted fault on the control timeline, kind by
// kind in the order Config lists them, so faults that start at one instant
// fire in that order.  Validation guaranteed that every target exists.
func (m *Manager) scheduleFaults() {
	for _, f := range m.cfg.Faults {
		vmc := m.VMC(f.Region)
		m.scheduleWindow(f.At, f.Duration, func() func() {
			restore := vmc.ForceTargetActive(f.KeepActive)
			return func() { vmc.RestoreTargetActive(restore) }
		})
	}
	var streamIndex map[string]int
	if len(m.cfg.LinkFaults) > 0 {
		streamIndex = map[string]int{}
		for i, s := range m.globalStreamNames() {
			streamIndex[s] = i
		}
	}
	for _, f := range m.cfg.LinkFaults {
		s, r := streamIndex[f.Stream], m.regionIndex[f.Region]
		m.scheduleWindow(f.At, f.Duration, func() func() {
			prev := m.el.scaleLinkRTT(s, r, f.Factor)
			return func() { m.el.setLinkRTT(s, r, prev) }
		})
	}
	for _, f := range m.cfg.PartitionFaults {
		m.scheduleWindow(f.At, f.Duration, func() func() {
			m.plane.Isolate(f.Replicas)
			return m.plane.Heal
		})
	}
	for _, f := range m.cfg.ControllerFaults {
		m.scheduleWindow(f.At, f.Duration, func() func() {
			m.cluster.ReportNodeFailure(f.Region)
			return func() { m.cluster.ReportNodeRecovery(f.Region) }
		})
	}
	for _, f := range m.cfg.OverlayFaults {
		m.scheduleWindow(f.At, f.Duration, func() func() {
			m.cluster.ReportLinkFailure(f.A, f.B)
			return func() { m.cluster.ReportLinkRecovery(f.A, f.B) }
		})
	}
}

// scheduleWindow arms one scripted fault on the control timeline: start runs
// at `at` and returns the restore, which runs dur later.  A zero dur makes
// the fault permanent, and its restore never runs.
func (m *Manager) scheduleWindow(at, dur simclock.Duration, start func() (restore func())) {
	m.eng.ScheduleFunc(at, func(e *simclock.Engine) {
		restore := start()
		if dur > 0 {
			e.ScheduleFunc(dur, func(*simclock.Engine) { restore() })
		}
	})
}
