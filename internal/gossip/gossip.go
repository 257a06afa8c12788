// Package gossip is the gslb health plane: N replicas, each owning a
// gslb.Director, exchange versioned health summaries over a simulated
// SWIM-style push-pull protocol, so every replica routes on its own
// eventually-consistent view of the world.  Request lanes are assigned to a
// home replica (lane g reads replica g mod N's table), which is what lets two
// lanes route on conflicting views of the same region — the split-brain,
// partition and stale-view failure modes.  With one replica the plane is the
// central director: the replica probes every region and no gossip round is
// needed.
//
// Region ownership is static: region i is probed by replica i mod N, and the
// owner bumps the region's version with every probe.  A gossip round delivers
// the messages that have arrived (adopting any summary with a newer version),
// then every replica pushes its full view to Fanout peers drawn from a
// derived RNG stream; a delivered push is answered with a pull reply carrying
// the receiver's view, so state flows both ways.  Messages carry a delivery
// timestamp (send time + Delay) and an optional Bernoulli loss draw, and sit
// in per-(src, dst) mailbox lanes that are drained in (dst, src, send order)
// — the same deterministic drain discipline as the sharded engine's
// cross-shard mailboxes.
//
// Everything here runs on the simulation's control timeline (ProbeTick and
// GossipTick fire from control-timeline tickers, while every region shard is
// idle), so the plane is byte-deterministic for any event-loop worker count
// by construction; the request path only ever reads the immutable per-replica
// *gslb.Table snapshots.
//
// Partitions are scripted, not emergent: Isolate splits the replica set in
// two and cross-side messages are dropped at delivery time until Heal
// reconnects everyone.  The plane also measures its own convergence — every
// version bump is tracked until all replicas have seen it (mean lag), and
// MaxDivergence reports how many probe generations the most stale replica is
// behind, which feeds the gossip_convergence series.
package gossip

import (
	"fmt"
	"sort"

	"repro/internal/cloudsim"
	"repro/internal/gslb"
	"repro/internal/simclock"
	"repro/internal/validate"
)

// Config tunes the replicated health plane.  New takes it as given: with two
// or more replicas Interval and Fanout must be positive.  One replica sends
// no gossip, so it reads neither.
type Config struct {
	// Replicas is the number of director replicas (at least 1; a typical
	// deployment runs 3).
	Replicas int `domain:">0"`
	// Interval is the gossip round period on the control timeline.  Each
	// round first delivers due messages, then sends new pushes.
	Interval simclock.Duration `domain:">=0"`
	// Fanout is how many peers each replica pushes to per round (capped at
	// Replicas-1).
	Fanout int `domain:">=0"`
	// Delay is the per-message link delay.  A message sent in one round is
	// delivered at the first round whose start time is >= send time + Delay,
	// so even Delay 0 costs one round of latency.
	Delay simclock.Duration `domain:">=0"`
	// Loss is the per-message Bernoulli loss probability in [0, 1).
	Loss float64 `domain:"[0,1)"`
}

// Summary is one region's versioned health digest as carried by gossip
// messages: enough to rebuild a routing table, nothing more.
type Summary struct {
	// Version counts the owner's probes of this region; higher wins.
	Version uint64
	// State and Capacity are the owner director's probe result at that
	// version.
	State    gslb.HealthState
	Capacity float64
}

// message is one in-flight push or pull reply: a full view snapshot stamped
// with its delivery time.
type message struct {
	reply     bool // pull reply (does not trigger another reply)
	deliverAt simclock.Time
	view      []Summary
}

// replica is one director replica: its gslb.Director (health machines live
// for owned regions, adopted from gossip for the rest, plus the routing
// table built from them) and its versioned view.
type replica struct {
	dir  *gslb.Director
	view []Summary
}

// update tracks one owner version bump until every replica has seen it.
type update struct {
	region  int
	version uint64
	at      simclock.Time
}

// Stats summarises the plane's protocol and convergence counters for reports
// and byte-pinned goldens.
type Stats struct {
	// Replicas and Rounds are the replica count and completed gossip rounds.
	Replicas int
	Rounds   uint64
	// Sent / Delivered / Dropped count gossip messages; Dropped folds both
	// Bernoulli link loss and partition drops.
	Sent, Delivered, Dropped uint64
	// Converged counts owner version bumps every replica has seen;
	// Pending counts bumps still propagating at the end of the run.
	Converged, Pending int
	// MeanLagSeconds is the mean time from a version bump to full
	// convergence, over the Converged updates (0 when none converged).
	MeanLagSeconds float64
	// MaxDivergence is the current maximum, over regions, of how many probe
	// generations the most stale replica's view is behind the owner.
	MaxDivergence uint64
}

// Plane is the replicated health plane.  ProbeTick and GossipTick are
// control-timeline-only; the request path reads the immutable per-replica
// Table snapshots.
type Plane struct {
	cfg  Config
	reps []*replica
	rng  *simclock.RNG
	// lanes[src][dst] is the in-flight message queue from replica src to
	// replica dst, in send order (delivery times are non-decreasing within a
	// lane, so draining a due prefix preserves order).
	lanes [][][]message
	// group[i] is replica i's partition side; all zero when connected.
	group    []int
	probes   uint64
	rounds   uint64
	sent     uint64
	deliv    uint64
	dropped  uint64
	pending  []update
	lagSum   float64
	lagCount int
}

// New builds a health plane over the named regions (deployment order).
// gcfg, regions, streams and sample are what every replica's
// gslb.NewDirector gets; only a region's owner ever probes it.  A
// latency-aware gcfg needs a single replica: its passive estimators learn
// from every lane's completions.  seed derives the plane's private RNG
// stream (peer selection and loss draws).
func New(cfg Config, gcfg gslb.Config, regions, streams []string, seed uint64, sample func(i int) cloudsim.Telemetry) (*Plane, error) {
	if err := validate.Struct("gossip", &cfg); err != nil {
		return nil, err
	}
	if cfg.Replicas > 1 && gcfg.LatencyAware() {
		return nil, fmt.Errorf("gossip: the latency policy (and RTT matrices) need a single replica")
	}
	if cfg.Replicas > 1 && cfg.Interval == 0 {
		return nil, validate.Fieldf("gossip", "Interval", "must be > 0 with %d replicas, got 0", cfg.Replicas)
	}
	if cfg.Replicas > 1 && cfg.Fanout == 0 {
		return nil, validate.Fieldf("gossip", "Fanout", "must be > 0 with %d replicas, got 0", cfg.Replicas)
	}
	p := &Plane{
		cfg:   cfg,
		reps:  make([]*replica, cfg.Replicas),
		rng:   simclock.NewRNG(seed),
		group: make([]int, cfg.Replicas),
		lanes: make([][][]message, cfg.Replicas),
	}
	for i := range p.lanes {
		p.lanes[i] = make([][]message, cfg.Replicas)
	}
	for i := range p.reps {
		d, err := gslb.NewDirector(gcfg, regions, streams, sample)
		if err != nil {
			return nil, err
		}
		r := &replica{dir: d, view: make([]Summary, len(regions))}
		for j := range r.view {
			r.view[j] = Summary{State: gslb.Healthy, Capacity: 1}
		}
		p.reps[i] = r
	}
	return p, nil
}

// owner returns the replica that probes region r.
func (p *Plane) owner(r int) int { return r % len(p.reps) }

// NumReplicas returns the replica count.
func (p *Plane) NumReplicas() int { return len(p.reps) }

// Director returns replica i's director: its routing policy, health states,
// transition log and (single-replica planes only) latency estimates.
func (p *Plane) Director(i int) *gslb.Director { return p.reps[i].dir }

// Config returns the plane configuration, as New was given it.
func (p *Plane) Config() Config { return p.cfg }

// Home returns the replica a request lane is assigned to: lane g routes on
// replica (g mod N)'s table, so lanes homed to different replicas can act on
// conflicting views.
func (p *Plane) Home(lane int) int {
	if lane < 0 {
		lane = -lane
	}
	return lane % len(p.reps)
}

// Table returns replica i's current routing-table snapshot.
func (p *Plane) Table(i int) *gslb.Table { return p.reps[i].dir.Table() }

// OwnerStates returns each region's health state as seen by its owning
// replica — the authoritative view, in deployment order.
func (p *Plane) OwnerStates() []gslb.HealthState {
	out := make([]gslb.HealthState, len(p.reps[0].view))
	for r := range out {
		out[r] = p.reps[p.owner(r)].view[r].State
	}
	return out
}

// Transitions returns every authoritative health-state change (as seen by
// region owners) so far, ordered by probe time, then region index.
func (p *Plane) Transitions() []gslb.Transition {
	index := map[string]int{}
	for r, name := range p.reps[0].dir.Regions() {
		index[name] = r
	}
	var out []gslb.Transition
	for _, rep := range p.reps {
		out = append(out, rep.dir.Transitions()...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return index[out[a].Region] < index[out[b].Region]
	})
	return out
}

// Probes returns the number of completed probe ticks.
func (p *Plane) Probes() uint64 { return p.probes }

// Isolate splits the replica set in two: the listed replicas form one side,
// everyone else the other.  Cross-side messages are dropped at delivery time
// (a message sent before the split but due during it is lost; one sent
// during the split but due after Heal gets through), so each side keeps
// converging internally while the views across the cut drift apart.
func (p *Plane) Isolate(replicas []int) {
	for i := range p.group {
		p.group[i] = 0
	}
	for _, i := range replicas {
		if i >= 0 && i < len(p.group) {
			p.group[i] = 1
		}
	}
}

// Heal reconnects all replicas; in-flight messages resume delivery and the
// next rounds reconcile the sides.
func (p *Plane) Heal() {
	for i := range p.group {
		p.group[i] = 0
	}
}

// ProbeTick advances the owned health state machines: each region's owner
// probes it on its director and bumps the region's version.  Must run on the
// control timeline.
func (p *Plane) ProbeTick(now simclock.Time) {
	p.probes++
	for r := range p.reps[0].view {
		rep := p.reps[p.owner(r)]
		state, capacity := rep.dir.Probe(r, now)
		v := rep.view[r].Version + 1
		rep.view[r] = Summary{Version: v, State: state, Capacity: capacity}
		p.pending = append(p.pending, update{region: r, version: v, at: now})
	}
	p.settleUpdates(now)
}

// GossipTick runs one gossip round: deliver every message that is due, then
// have each replica push its view to Fanout peers.  Must run on the control
// timeline.
func (p *Plane) GossipTick(now simclock.Time) {
	p.rounds++
	p.deliver(now)
	if len(p.reps) > 1 {
		for i := range p.reps {
			for _, peer := range p.pickPeers(i) {
				p.send(now, i, peer, false)
			}
		}
	}
	p.settleUpdates(now)
}

// deliver drains every due message in (dst, src, send order) — the mailbox
// drain discipline — adopting newer summaries and answering pushes with pull
// replies.
func (p *Plane) deliver(now simclock.Time) {
	for dst := range p.reps {
		for src := range p.reps {
			lane := p.lanes[src][dst]
			n := 0
			for n < len(lane) && lane[n].deliverAt <= now {
				n++
			}
			if n == 0 {
				continue
			}
			due := lane[:n]
			p.lanes[src][dst] = lane[n:]
			for _, msg := range due {
				if p.group[src] != p.group[dst] {
					p.dropped++
					continue
				}
				p.deliv++
				p.adopt(dst, msg.view)
				if !msg.reply {
					p.send(now, dst, src, true)
				}
			}
		}
	}
}

// adopt merges an incoming view into replica dst: any region whose incoming
// version is newer replaces the local summary and the director's state.  Owned
// regions are naturally immune — only the owner bumps their version, so an
// incoming version can never exceed the owner's own.
func (p *Plane) adopt(dst int, view []Summary) {
	rep := p.reps[dst]
	for r := range view {
		if r >= len(rep.view) || view[r].Version <= rep.view[r].Version {
			continue
		}
		rep.view[r] = view[r]
		rep.dir.Adopt(r, view[r].State, view[r].Capacity)
	}
}

// send enqueues a snapshot of src's view for dst, subject to the Bernoulli
// loss draw.  Delivery happens at the first round start >= now + Delay.
func (p *Plane) send(now simclock.Time, src, dst int, reply bool) {
	p.sent++
	if p.cfg.Loss > 0 && p.rng.Float64() < p.cfg.Loss {
		p.dropped++
		return
	}
	view := make([]Summary, len(p.reps[src].view))
	copy(view, p.reps[src].view)
	p.lanes[src][dst] = append(p.lanes[src][dst], message{
		reply:     reply,
		deliverAt: now.Add(p.cfg.Delay),
		view:      view,
	})
}

// pickPeers draws Fanout distinct peers (excluding self) from the plane's
// RNG stream.
func (p *Plane) pickPeers(self int) []int {
	n := len(p.reps) - 1
	k := p.cfg.Fanout
	if k > n {
		k = n
	}
	// Partial Fisher–Yates over the peer set.
	pool := make([]int, 0, n)
	for i := range p.reps {
		if i != self {
			pool = append(pool, i)
		}
	}
	for j := 0; j < k; j++ {
		swap := j + p.rng.Intn(n-j)
		pool[j], pool[swap] = pool[swap], pool[j]
	}
	return pool[:k]
}

// minVersion returns the lowest view version any replica holds for region r.
func (p *Plane) minVersion(r int) uint64 {
	min := p.reps[0].view[r].Version
	for _, rep := range p.reps[1:] {
		if v := rep.view[r].Version; v < min {
			min = v
		}
	}
	return min
}

// settleUpdates retires every pending version bump that all replicas have
// now seen, folding its propagation lag into the convergence stats.
func (p *Plane) settleUpdates(now simclock.Time) {
	kept := p.pending[:0]
	for _, u := range p.pending {
		if p.minVersion(u.region) >= u.version {
			p.lagSum += now.Sub(u.at).Seconds()
			p.lagCount++
			continue
		}
		kept = append(kept, u)
	}
	p.pending = kept
}

// MaxDivergence returns the current maximum, over regions, of the version
// distance between the owner's view and the most stale replica's view — 0
// when every replica agrees, growing by one per probe for a region whose
// owner is cut off from some replica.
func (p *Plane) MaxDivergence() uint64 {
	var max uint64
	for r := range p.reps[0].view {
		d := p.reps[p.owner(r)].view[r].Version - p.minVersion(r)
		if d > max {
			max = d
		}
	}
	return max
}

// Stats returns the plane's protocol and convergence counters.
func (p *Plane) Stats() Stats {
	s := Stats{
		Replicas:      len(p.reps),
		Rounds:        p.rounds,
		Sent:          p.sent,
		Delivered:     p.deliv,
		Dropped:       p.dropped,
		Converged:     p.lagCount,
		Pending:       len(p.pending),
		MaxDivergence: p.MaxDivergence(),
	}
	if p.lagCount > 0 {
		s.MeanLagSeconds = p.lagSum / float64(p.lagCount)
	}
	return s
}
