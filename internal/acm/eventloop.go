// The event loop of a deployment: the Manager runs every region shard as its
// own simclock sub-engine and the whole request-service path — client think
// timers, arrivals, dispatch, service, completion, rejuvenation timers — on
// the shard loops in lockstep epochs (simclock.ShardedEngine), fanned out
// over Config.EventWorkers goroutines.  A 16-shard megaregion services
// sixteen arrival/completion streams concurrently.
//
// Partitioning: each region's client population is split across its shards,
// and a client's requests are dispatched inside its own shard (a static
// client→shard binding, which spreads load evenly in expectation and keeps
// the arrival→dispatch→service→completion loop entirely shard-local).  Each
// shard also owns a private workload.Metrics sink; reads merge the sinks in
// shard-index order, so the merged floating-point moments are
// bit-reproducible for every worker count.
//
// What crosses shards — and therefore travels through mailboxes drained at
// epoch barriers — is exactly: requests forwarded to another region by the
// global forward plan (plus their completions travelling back), requests
// hopping off a shard that momentarily has no ACTIVE VM, and the reactive
// recovery of a failed VM.  The periodic controllers (VMC ticks, the
// leader's control era) run on the control timeline at their exact
// timestamps with exclusive access to every shard.
package acm

import (
	"fmt"
	"slices"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/gslb"
	"repro/internal/simclock"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// eventLoop holds the sharded-event-loop state of a Manager.
type eventLoop struct {
	mgr *Manager
	se  *simclock.ShardedEngine

	// base[r] is the global lane index of region r's shard 0: region r's
	// shard s runs on el.se.Shard(base[r]+s) (engine).
	base  []int
	total int

	// Per-(region, shard) client populations and their surge counterparts.
	pops  [][]*workload.Population
	surge [][]*workload.Population

	// Per-(region, shard) cohort-compressed populations: region r's
	// CohortClients split across its shards like the browser population, so
	// the batch submissions and the tracer browsers stay shard-local.
	cohorts [][]*workload.CohortPopulation
	// Per-lane cohort populations attached to the director (the
	// cohort-compressed analogue of globalPops).
	globalCohorts []*workload.CohortPopulation

	// Per-global-shard state, merged in shard-index order at read time.
	metrics   []*workload.Metrics
	local     []uint64
	forwarded []uint64
	// era is the sink the control era merges the per-shard metrics into,
	// reset and reused every era.
	era *workload.Metrics

	// Global-traffic-director state (nil/empty when GSLB is disabled).
	// gslbTables[g] is lane g's snapshot of the director's routing table,
	// republished at probe ticks (control timeline, epoch barriers) exactly
	// like the forward-plan snapshots; gslbRouted[g][r] counts the requests
	// lane g's dispatcher routed to region r; gslbDisp[g] builds lane g's
	// director-facing dispatcher for one population stream, every one of
	// them sharing the lane's routing state so the draws of the lane's
	// global browsers and arrival streams interleave on one lane-local RNG
	// stream.
	gslbTables []*gslb.Table
	gslbRouted [][]uint64
	gslbDisp   []func(stream int) workload.Dispatcher
	globalPops []*workload.Population

	// Latency-aware GSLB state (zero-valued unless the director keeps
	// latency estimates).  streamIdx maps a traffic source's label (the
	// Region of its workload config) to its population-stream index, read
	// once per source when its dispatcher is built; unknown labels, and
	// every label while the map is nil, fold into stream 0.  rtt is the
	// immutable ground-truth RTT matrix (milliseconds, [stream][region]),
	// swapped for a rewritten copy whenever a scripted link fault changes it
	// on the control timeline (an epoch barrier); gslbObs[g] buffers
	// lane g's completion observations — appended in lane event order,
	// drained into the director in lane-index order right before each probe
	// tick, which keeps the estimator folds byte-reproducible for every
	// worker count.
	latAware  bool
	streamIdx map[string]int
	rtt       [][]float64
	gslbObs   [][]gslbObs

	// Open-loop arrival streams (global or region-pinned) and the lane
	// engine each one runs on.
	varying     []*workload.VaryingOpenLoop
	varyingLane []int
}

// newEventLoop assembles the sharded event loop for a fully built Manager
// (regions, VMCs, overlay, control loop and the initial plan all exist).
func newEventLoop(m *Manager) *eventLoop {
	el := &eventLoop{mgr: m, era: workload.NewMetrics()}
	el.base = make([]int, len(m.regions))
	for i, r := range m.regions {
		el.base[i] = el.total
		el.total += r.NumShards()
	}
	el.se = simclock.NewShardedEngine(el.total, m.cfg.Seed, m.cfg.EventEpoch, m.cfg.EventWorkers)

	el.metrics = make([]*workload.Metrics, el.total)
	el.local = make([]uint64, el.total)
	el.forwarded = make([]uint64, el.total)
	for g := range el.metrics {
		el.metrics[g] = workload.NewMetrics()
	}
	el.installPlan(m.plan)
	el.pops = make([][]*workload.Population, len(m.regions))
	el.surge = make([][]*workload.Population, len(m.regions))
	el.cohorts = make([][]*workload.CohortPopulation, len(m.regions))

	for r := range m.regions {
		rs := m.cfg.Regions[r]
		el.pops[r] = el.buildPopulations(r, rs, rs.Clients, m.cfg.Seed+uint64(r)*7919+101)
		if rs.SurgeClients > 0 && rs.SurgeAt > 0 {
			el.surge[r] = el.buildPopulations(r, rs, rs.SurgeClients, m.cfg.Seed+uint64(r)*7919+271)
		}
		if rs.CohortClients > 0 {
			el.cohorts[r] = el.buildCohorts(r, rs)
		}
	}
	el.buildGlobalTraffic()
	return el
}

// buildGlobalTraffic assembles the director-facing lanes: per-lane routing
// snapshots and dispatchers, the global client population split across every
// lane, and the open-loop arrival streams (global ones route through the
// lane dispatcher, region-pinned ones through that region's plan
// dispatcher).
func (el *eventLoop) buildGlobalTraffic() {
	m := el.mgr
	if m.plane != nil {
		el.gslbTables = make([]*gslb.Table, el.total)
		el.gslbRouted = make([][]uint64, el.total)
		el.gslbDisp = make([]func(stream int) workload.Dispatcher, el.total)
		if d := m.latencyDirector(); d != nil {
			el.latAware = true
			streams := d.Streams()
			el.streamIdx = make(map[string]int, len(streams))
			matrix := make([][]float64, len(streams))
			for s, name := range streams {
				el.streamIdx[name] = s
				row := make([]float64, len(m.regions))
				copy(row, m.cfg.GSLB.RTT[name]) // streams without a row keep 0 ms
				matrix[s] = row
			}
			el.rtt = matrix
			el.gslbObs = make([][]gslbObs, el.total)
		}
		// Each request lane is homed to one replica and routes on that
		// replica's table — with several replicas two lanes can disagree
		// about the same region, which is the point.
		el.installPlaneTables(m.plane)
		for g := 0; g < el.total; g++ {
			el.gslbRouted[g] = make([]uint64, len(m.regions))
			el.gslbDisp[g] = el.gslbDispatcher(g)
		}
		if m.cfg.GlobalClients > 0 {
			el.globalPops = make([]*workload.Population, el.total)
			seedBase := m.cfg.Seed ^ hashString("gslb-clients")
			for g := 0; g < el.total; g++ {
				el.globalPops[g] = workload.NewPopulation(workload.PopulationConfig{
					Region:        "global",
					IDPrefix:      fmt.Sprintf("global/s%02d", g),
					Clients:       splitClients(m.cfg.GlobalClients, el.total, g),
					Mix:           m.cfg.GlobalMix,
					ThinkTimeMean: m.cfg.ThinkTime,
					RampUp:        m.cfg.ControlInterval / 2,
					Tracer:        m.tracer,
				}, simclock.NewStreamRNG(seedBase, uint64(g)), el.gslbDisp[g](el.streamIdx["global"]), el.metrics[g])
			}
		}
		if m.cfg.CohortClients > 0 {
			el.globalCohorts = make([]*workload.CohortPopulation, el.total)
			seedBase := m.cfg.Seed ^ hashString("gslb-cohorts")
			for g := 0; g < el.total; g++ {
				el.globalCohorts[g] = workload.NewCohortPopulation(workload.CohortConfig{
					Region:         "global",
					IDPrefix:       fmt.Sprintf("global/s%02d-tracer", g),
					Clients:        splitClients(m.cfg.CohortClients, el.total, g),
					Mix:            m.cfg.GlobalMix,
					ThinkTimeMean:  m.cfg.ThinkTime,
					Tick:           m.cfg.CohortTick,
					MaxBatch:       m.cfg.CohortMaxBatch,
					TracerFraction: m.cfg.TracerFraction,
					RampUp:         m.cfg.ControlInterval / 2,
					Seed:           simclock.DeriveSeed(seedBase, uint64(g)),
					Tracer:         m.tracer,
				}, el.gslbDisp[g](el.streamIdx["global"]), el.metrics[g])
			}
		}
	}
	for i, a := range m.cfg.Arrivals {
		var lane int
		var target workload.Dispatcher
		if a.Region == "" {
			// Global stream: spread streams across lanes round-robin and
			// route through the lane's director dispatcher.
			lane = i % el.total
			target = el.gslbDisp[lane](el.streamIdx[a.Name])
		} else {
			// Region-pinned stream: one of the region's own lanes, entering
			// through its plan dispatcher like the region's browsers.
			r := m.regionIndex[a.Region]
			s := i % m.regions[r].NumShards()
			lane = el.base[r] + s
			target = el.dispatcher(r, s)
		}
		gen, err := workload.NewVaryingOpenLoop(workload.VaryingOpenLoopConfig{
			Region: a.Name,
			Rate:   a.Rate,
			Mix:    a.Mix,
			Tracer: m.tracer,
		}, simclock.NewStreamRNG(m.cfg.Seed^hashString("arrivals"), uint64(i)), target, el.metrics[lane])
		if err != nil {
			// The rate spec was validated in NewManager; reaching this means
			// a programming error, not a configuration one.
			panic(err)
		}
		el.varying = append(el.varying, gen)
		el.varyingLane = append(el.varyingLane, lane)
	}
}

// gslbObs is one buffered completion observation: the request's population
// stream, the region that served it, the ground-truth round trip it
// experienced (captured at dispatch, so in-flight requests report the
// pre-fault value after a link fault — exactly what a passive learner sees)
// and the number of client interactions it stood for.
type gslbObs struct {
	stream, region int
	rttMs          float64
	weight         uint64
}

// gslbDispatcher returns lane g's director-facing entry point, built per
// population stream: the routing table snapshot picks the destination
// region, a lane-local RNG stream picks the destination shard, and
// cloudsim.Region.Send delivers the request — through the mailbox, homed on
// this lane, when it crosses lanes, exactly like the plan-forwarding
// dispatcher, so byte-identical output for every worker count is preserved.
// Every stream's dispatcher shares the lane's RNG and round-robin cursor.  On
// a latency-aware deployment the dispatcher also simulates the stream→region
// round trip (half outbound, half on the client-visible completion) and taps
// every completion into this lane's observation buffer for the director's
// passive latency learning.
func (el *eventLoop) gslbDispatcher(g int) func(stream int) workload.Dispatcher {
	m := el.mgr
	rng := simclock.NewStreamRNG(m.cfg.Seed^hashString("gslb-route"), uint64(g))
	rr := uint64(g) // stagger each lane's round-robin start
	return func(stream int) workload.Dispatcher {
		return workload.DispatcherFunc(func(eng *simclock.Engine, req *cloudsim.Request) {
			el.gslbRoute(g, stream, rng, &rr, eng, req)
		})
	}
}

// gslbRoute routes one request of the given population stream from lane g,
// drawing from the lane's rng and round-robin cursor rr.
func (el *eventLoop) gslbRoute(g, stream int, rng *simclock.RNG, rr *uint64, eng *simclock.Engine, req *cloudsim.Request) {
	m := el.mgr
	ri := el.gslbTables[g].RouteStream(stream, rng, rr)
	el.gslbRouted[g][ri]++
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Event(tracing.EventGSLBRoute, eng.Now(),
			fmt.Sprintf("region=%s lane=%d", m.regionNames[ri], g))
	}
	dst := m.regions[ri]
	ds := 0
	if n := dst.NumShards(); n > 1 {
		ds = rng.Intn(n)
	}
	if !el.latAware {
		dst.Send(eng, ds, req, eng.Now())
		return
	}

	// The tap wraps OnDone on this lane before the request leaves it, and
	// the completion runs it back home, so the buffer append needs no
	// synchronisation.  The tap shifts End itself (not through
	// ReturnLeg): its return-leg span starts at the unshifted End.
	rttMs := el.rtt[stream][ri]
	oneWay := simclock.Duration(rttMs / 2000)
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Span(tracing.SpanRTTSend, eng.Now(), oneWay,
			fmt.Sprintf("region=%s rtt=%gms", m.regionNames[ri], rttMs))
	}
	weight := req.Weight()
	prev := req.OnDone
	req.OnDone = func(o cloudsim.Outcome) {
		// The return-leg span starts at the server-side completion; the
		// shifted End below is what the client sees.  The wrap runs before
		// the client's seal, so the span still lands inside the trace.
		if req.Trace != nil {
			req.Trace.Span(tracing.SpanRTTReturn, o.End, oneWay, "")
		}
		o.End = o.End.Add(oneWay)
		el.gslbObs[g] = append(el.gslbObs[g], gslbObs{stream: stream, region: ri, rttMs: rttMs, weight: weight})
		if prev != nil {
			prev(o)
		}
	}
	dst.Send(eng, ds, req, eng.Now().Add(oneWay))
}

// flushGSLBObs drains every lane's observation buffer into its home
// replica's director in lane-index order — the fixed fold order that keeps
// the estimator's floating-point state byte-reproducible for every worker
// count.  Called on the control timeline right before each probe tick, while
// the shard loops are idle.
func (el *eventLoop) flushGSLBObs(p *gossip.Plane) {
	if !el.latAware {
		return
	}
	for g := range el.gslbObs {
		d := p.Director(p.Home(g))
		for _, o := range el.gslbObs[g] {
			d.Observe(o.stream, o.region, o.rttMs, o.weight)
		}
		el.gslbObs[g] = el.gslbObs[g][:0]
	}
}

// scaleLinkRTT multiplies the ground-truth round trip of one
// (stream, region) path by factor, returning the previous value so a bounded
// fault can restore it.  Control timeline only (epoch barrier).
func (el *eventLoop) scaleLinkRTT(stream, region int, factor float64) float64 {
	prev := el.rtt[stream][region]
	el.setLinkRTT(stream, region, prev*factor)
	return prev
}

// setLinkRTT rewrites one entry of the ground-truth RTT matrix.  The matrix
// is immutable once published: the rewrite builds a fresh copy and swaps the
// pointer at the barrier, while no lane dispatches.
func (el *eventLoop) setLinkRTT(stream, region int, ms float64) {
	next := make([][]float64, len(el.rtt))
	for s := range el.rtt {
		next[s] = append([]float64(nil), el.rtt[s]...)
	}
	next[stream][region] = ms
	el.rtt = next
}

// installPlaneTables republishes every replica's routing-table snapshot to
// its homed lanes (lane g reads replica g mod N).  Called from the plane's
// probe and gossip ticks on the control timeline, i.e. at an epoch barrier
// while every shard loop is idle.
func (el *eventLoop) installPlaneTables(p *gossip.Plane) {
	for g := range el.gslbTables {
		el.gslbTables[g] = p.Table(p.Home(g))
	}
}

// mergedGSLBRouted folds the per-lane routed counters in lane order,
// returning per-region totals in deployment order.
func (el *eventLoop) mergedGSLBRouted() []uint64 {
	out := make([]uint64, len(el.mgr.regions))
	for g := range el.gslbRouted {
		for r, n := range el.gslbRouted[g] {
			out[r] += n
		}
	}
	return out
}

// splitClients spreads count clients across n shards: shard s receives
// count/n plus one of the count%n remainders.
func splitClients(count, n, s int) int {
	per := count / n
	if s < count%n {
		per++
	}
	return per
}

// buildPopulations creates one population per shard of region r, each bound
// to its shard's dispatcher, metrics sink and a derived RNG stream.
func (el *eventLoop) buildPopulations(r int, rs RegionSetup, clients int, seedBase uint64) []*workload.Population {
	m := el.mgr
	n := m.regions[r].NumShards()
	out := make([]*workload.Population, n)
	for s := 0; s < n; s++ {
		out[s] = workload.NewPopulation(workload.PopulationConfig{
			Region:        rs.Region.Name,
			IDPrefix:      shardPrefix(rs.Region.Name, s),
			Clients:       splitClients(clients, n, s),
			Mix:           rs.Mix,
			ThinkTimeMean: m.cfg.ThinkTime,
			RampUp:        m.cfg.ControlInterval / 2,
			Tracer:        m.tracer,
		}, simclock.NewStreamRNG(seedBase, uint64(s)), el.dispatcher(r, s), el.metrics[el.base[r]+s])
	}
	return out
}

// buildCohorts creates one cohort-compressed population per shard of region
// r, splitting the region's CohortClients like the browser population so the
// batch submissions and the tracer browsers stay shard-local.
func (el *eventLoop) buildCohorts(r int, rs RegionSetup) []*workload.CohortPopulation {
	m := el.mgr
	n := m.regions[r].NumShards()
	out := make([]*workload.CohortPopulation, n)
	seedBase := m.cfg.Seed ^ hashString("cohort")
	for s := 0; s < n; s++ {
		out[s] = workload.NewCohortPopulation(workload.CohortConfig{
			Region:         rs.Region.Name,
			IDPrefix:       shardPrefix(rs.Region.Name, s) + "-tracer",
			Clients:        splitClients(rs.CohortClients, n, s),
			Mix:            rs.Mix,
			ThinkTimeMean:  m.cfg.ThinkTime,
			Tick:           m.cfg.CohortTick,
			MaxBatch:       m.cfg.CohortMaxBatch,
			TracerFraction: m.cfg.TracerFraction,
			RampUp:         m.cfg.ControlInterval / 2,
			Seed:           simclock.DeriveSeed(seedBase, uint64(r), uint64(s)),
			Tracer:         m.tracer,
		}, el.dispatcher(r, s), el.metrics[el.base[r]+s])
	}
	return out
}

// shardPrefix labels one shard's browsers ("region1/s03").
func shardPrefix(region string, s int) string {
	return fmt.Sprintf("%s/s%02d", region, s)
}

// dispatcher returns the entry load balancer of region r's shard s.  Local
// requests dispatch inside the shard; the forward plan can route a request
// to another region, which crosses shards and therefore goes through the
// destination shard's mailbox, with the completion posted back to this
// shard.  Each dispatcher owns its overlay view, read only on its lane.
func (el *eventLoop) dispatcher(r, s int) workload.Dispatcher {
	m := el.mgr
	g := el.base[r] + s
	region := m.regions[r]
	rng := simclock.NewStreamRNG(m.cfg.Seed^hashString(m.regionNames[r]), uint64(s))
	net := m.net.View(m.regionNames)
	return workload.DispatcherFunc(func(eng *simclock.Engine, req *cloudsim.Request) {
		dr, ok := m.forwardLeg(eng, req, m.plan, net, r, rng.Float64())
		if !ok {
			el.local[g]++
			region.SubmitShard(eng, s, req)
			return
		}
		el.forwarded[g]++
		ds := 0
		if n := m.regions[dr].NumShards(); n > 1 {
			ds = rng.Intn(n)
		}
		m.regions[dr].Send(eng, ds, req, eng.Now().Add(req.ReturnLeg))
	})
}

// start launches the controllers, the per-shard populations and the surge
// timers on the sharded engine.
func (el *eventLoop) start() {
	m := el.mgr
	for r, vmc := range m.vmcs {
		engines := make([]*simclock.Engine, m.regions[r].NumShards())
		for s := range engines {
			engines[s] = el.engine(r, s)
		}
		vmc.StartSharded(el.se, engines)
		for s, pop := range el.pops[r] {
			pop.Start(el.engine(r, s))
		}
		for s, pop := range el.surge[r] {
			el.engine(r, s).ScheduleFunc(m.cfg.Regions[r].SurgeAt, func(e *simclock.Engine) { pop.Start(e) })
		}
		for s, c := range el.cohorts[r] {
			c.Start(el.engine(r, s))
		}
	}
	for g, pop := range el.globalPops {
		pop.Start(el.se.Shard(g))
	}
	for g, c := range el.globalCohorts {
		c.Start(el.se.Shard(g))
	}
	for i, gen := range el.varying {
		gen.Start(el.se.Shard(el.varyingLane[i]))
	}
}

// stop halts every population and controller.
func (el *eventLoop) stop() {
	m := el.mgr
	for r, vmc := range m.vmcs {
		for _, pop := range el.pops[r] {
			pop.Stop()
		}
		for _, pop := range el.surge[r] {
			pop.Stop()
		}
		for _, c := range el.cohorts[r] {
			c.Stop()
		}
		vmc.Stop()
	}
	for _, pop := range el.globalPops {
		pop.Stop()
	}
	for _, c := range el.globalCohorts {
		c.Stop()
	}
	for _, gen := range el.varying {
		gen.Stop()
	}
}

// mergeMetrics folds the per-shard sinks into out in shard-index order — the
// fixed fold order that makes the merged moments bit-reproducible.
func (el *eventLoop) mergeMetrics(out *workload.Metrics) {
	for _, shardMetrics := range el.metrics {
		out.Merge(shardMetrics)
	}
}

// eraMetrics returns the era sink, reset and refilled with this era's merge.
// It is valid until the next call; only the control era reads it.
func (el *eventLoop) eraMetrics() *workload.Metrics {
	el.era.Reset()
	el.mergeMetrics(el.era)
	return el.era
}

// counters returns the merged local/forwarded request counts.
func (el *eventLoop) counters() (local, forwarded uint64) {
	for g := range el.local {
		local += el.local[g]
		forwarded += el.forwarded[g]
	}
	return local, forwarded
}

// installPlan installs p as the forward plan every dispatcher reads.  It is
// called at construction and from the control era, i.e. at an epoch barrier
// while every shard loop is idle, so the lanes read the plan without
// synchronisation.  The dispatchers index the plan's rows by region index,
// so a plan whose regions are not the deployment's, in its order, is a
// programming error and panics here instead of forwarding to the wrong
// region.
func (el *eventLoop) installPlan(p *core.ForwardPlan) {
	if !slices.Equal(p.Regions, el.mgr.regionNames) {
		panic(fmt.Sprintf("acm: forward plan regions %v differ from the deployment's %v", p.Regions, el.mgr.regionNames))
	}
	el.mgr.plan = p
}

// engine returns the sub-engine of region r's shard s.
func (el *eventLoop) engine(r, s int) *simclock.Engine { return el.se.Shard(el.base[r] + s) }
