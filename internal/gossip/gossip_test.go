package gossip

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/gslb"
	"repro/internal/simclock"
)

// telSource is a scriptable telemetry sampler: healthy full-capacity regions
// unless a region is marked down.
type telSource struct {
	regions []string
	down    map[int]bool
}

func (ts *telSource) sample(i int) cloudsim.Telemetry {
	tel := cloudsim.Telemetry{
		Region:         ts.regions[i],
		ActiveVMs:      4,
		BaselineActive: 4,
		Capacity:       100,
	}
	if ts.down[i] {
		tel.ActiveVMs = 0
		tel.Capacity = 0
	}
	return tel
}

// full fills the round period and fanout a test leaves at 0 with the
// values acm.Config.WithDefaults gives a deployment.
func full(c Config) Config {
	if c.Interval == 0 {
		c.Interval = 10 * simclock.Second
	}
	if c.Fanout == 0 {
		c.Fanout = 1
	}
	return c
}

func newTestPlane(t *testing.T, cfg Config, gcfg gslb.Config, ts *telSource) *Plane {
	t.Helper()
	p, err := New(full(cfg), gcfg, ts.regions, nil, 42, ts.sample)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func threeRegions() *telSource {
	return &telSource{regions: []string{"region1", "region2", "region3"}, down: map[int]bool{}}
}

// run advances the plane through n probe+gossip rounds, one per simulated
// interval (probe first, then gossip, matching the acm wiring's two tickers
// firing at the same cadence for the test).
func run(p *Plane, start simclock.Time, n int, step simclock.Duration) simclock.Time {
	now := start
	for i := 0; i < n; i++ {
		now = now.Add(step)
		p.ProbeTick(now)
		p.GossipTick(now)
	}
	return now
}

func TestGossipConvergesWithoutFaults(t *testing.T) {
	ts := threeRegions()
	p := newTestPlane(t, Config{Replicas: 3}, gslb.Config{Policy: gslb.PolicyLeastLoad}, ts)
	run(p, 0, 12, 10*simclock.Second)
	// With fanout 1 and no loss, a dozen rounds are plenty for every bump to
	// settle within a round or two; divergence must be bounded by the rounds
	// still in flight, and most updates must have converged.
	st := p.Stats()
	if st.Converged == 0 {
		t.Fatalf("no updates converged: %+v", st)
	}
	if st.MaxDivergence > 3 {
		t.Fatalf("divergence %d too high for a connected plane: %+v", st.MaxDivergence, st)
	}
	if st.MeanLagSeconds <= 0 {
		t.Fatalf("expected positive mean lag, got %v", st.MeanLagSeconds)
	}
	if st.Sent == 0 || st.Delivered == 0 || st.Dropped != 0 {
		t.Fatalf("unexpected message counters: %+v", st)
	}
}

func TestGossipDeterministicReplay(t *testing.T) {
	type trace struct {
		stats Stats
		views [][]gslb.HealthState
	}
	collect := func() trace {
		ts := threeRegions()
		p := newTestPlane(t, Config{Replicas: 3, Loss: 0.2, Delay: 3 * simclock.Second, Fanout: 2},
			gslb.Config{Policy: gslb.PolicyLeastLoad}, ts)
		now := simclock.Time(0)
		for i := 0; i < 20; i++ {
			now = now.Add(10 * simclock.Second)
			if i == 5 {
				ts.down[0] = true
			}
			if i == 12 {
				ts.down[0] = false
			}
			p.ProbeTick(now)
			p.GossipTick(now)
		}
		tr := trace{stats: p.Stats()}
		for i := 0; i < p.NumReplicas(); i++ {
			tr.views = append(tr.views, p.ReplicaStates(i))
		}
		return tr
	}
	a, b := collect(), collect()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestGossipAdoptsOnlyNewerVersions(t *testing.T) {
	ts := threeRegions()
	p := newTestPlane(t, Config{Replicas: 3}, gslb.Config{Policy: gslb.PolicyLeastLoad}, ts)
	// Owner of region0 is replica 0.  Probe twice so versions move.
	run(p, 0, 2, 10*simclock.Second)
	own := p.reps[0].view[0]
	// A stale (version 1) summary claiming region0 drained must not override
	// the owner's newer view, on the owner or on a replica that has already
	// adopted the newer version.
	stale := []Summary{{Version: 1, State: gslb.Drained, Capacity: 0}, {}, {}}
	p.adopt(0, stale)
	if got := p.reps[0].view[0]; got != own {
		t.Fatalf("owner adopted stale summary: %+v -> %+v", own, got)
	}
	p.adopt(1, stale)
	if got := p.reps[1].view[0]; got.Version < 2 || got.State == gslb.Drained {
		t.Fatalf("replica 1 regressed to stale summary: %+v", got)
	}
	// A genuinely newer summary is adopted by a non-owner.
	newer := []Summary{{Version: own.Version + 5, State: gslb.Drained, Capacity: 0}, {}, {}}
	p.adopt(1, newer)
	if got := p.reps[1].view[0]; got.Version != own.Version+5 || got.State != gslb.Drained {
		t.Fatalf("replica 1 refused newer summary: %+v", got)
	}
}

func TestGossipPartitionSplitBrainAndHeal(t *testing.T) {
	ts := threeRegions()
	p := newTestPlane(t, Config{Replicas: 3}, gslb.Config{
		Policy:     gslb.PolicyFailover,
		Preference: []string{"region1", "region2", "region3"},
	}, ts)
	step := 10 * simclock.Second
	now := run(p, 0, 3, step) // everyone converged, all healthy

	// Cut replica 2 off, then black out region1 (owned by replica 0).
	p.Isolate([]int{2})
	if p.group[0] != 0 || p.group[1] != 0 || p.group[2] != 1 {
		t.Fatalf("Isolate([2]) set partition sides %v, want [0 0 1]", p.group)
	}
	ts.down[0] = true
	now = run(p, now, 6, step)

	// The majority side drained region1 and fails over; the isolated
	// replica still routes lane traffic to the blacked-out region1.
	if s := p.ReplicaStates(0)[0]; s != gslb.Drained {
		t.Fatalf("owner view of region1 = %v, want drained", s)
	}
	if s := p.ReplicaStates(2)[0]; s != gslb.Healthy {
		t.Fatalf("isolated replica view of region1 = %v, want stale healthy", s)
	}
	rng := simclock.NewRNG(1)
	var rr uint64
	if got := p.Table(2).RouteStream(0, rng, &rr); got != 0 {
		t.Fatalf("isolated replica routes to region %d, want stale region 0", got)
	}
	if got := p.Table(0).RouteStream(0, rng, &rr); got != 1 {
		t.Fatalf("majority replica routes to region %d, want failover region 1", got)
	}
	if d := p.MaxDivergence(); d < 4 {
		t.Fatalf("divergence %d during partition, want >= 4", d)
	}
	dropped := p.Stats().Dropped
	if dropped == 0 {
		t.Fatalf("no messages dropped across the cut")
	}

	// Heal: the isolated replica catches up and fails over too.
	p.Heal()
	now = run(p, now, 3, step)
	if s := p.ReplicaStates(2)[0]; s != gslb.Drained {
		t.Fatalf("after heal, replica 2 view of region1 = %v, want drained", s)
	}
	if got := p.Table(2).RouteStream(0, rng, &rr); got != 1 {
		t.Fatalf("after heal, replica 2 routes to region %d, want 1", got)
	}
	if d := p.MaxDivergence(); d > 2 {
		t.Fatalf("divergence %d after heal, want near 0", d)
	}
	_ = now
}

func TestGossipLossDropsMessages(t *testing.T) {
	ts := threeRegions()
	p := newTestPlane(t, Config{Replicas: 3, Loss: 0.5}, gslb.Config{Policy: gslb.PolicyLeastLoad}, ts)
	run(p, 0, 10, 10*simclock.Second)
	st := p.Stats()
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("want both drops and deliveries under 50%% loss: %+v", st)
	}
	if st.Sent != st.Delivered+st.Dropped+inFlight(p) {
		t.Fatalf("message conservation violated: %+v (in flight %d)", st, inFlight(p))
	}
}

func inFlight(p *Plane) uint64 {
	var n uint64
	for src := range p.lanes {
		for dst := range p.lanes[src] {
			n += uint64(len(p.lanes[src][dst]))
		}
	}
	return n
}

func TestGossipSingleReplicaActsAsCentral(t *testing.T) {
	ts := threeRegions()
	p := newTestPlane(t, Config{Replicas: 1}, gslb.Config{Policy: gslb.PolicyLeastLoad}, ts)
	run(p, 0, 5, 10*simclock.Second)
	st := p.Stats()
	if st.Sent != 0 {
		t.Fatalf("single replica should not gossip: %+v", st)
	}
	if st.MaxDivergence != 0 || st.Pending != 0 {
		t.Fatalf("single replica should converge instantly: %+v", st)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	ts := threeRegions()
	ok := gslb.Config{Policy: gslb.PolicyLeastLoad}
	cases := []struct {
		name string
		cfg  Config
		gcfg gslb.Config
	}{
		{"zero replicas", Config{}, ok},
		{"loss out of range", Config{Replicas: 3, Loss: 1}, ok},
		{"negative fanout", Config{Replicas: 3, Fanout: -1}, ok},
		{"zero interval", Config{Replicas: 3, Fanout: 1}, ok},
		{"zero fanout", Config{Replicas: 3, Interval: simclock.Second}, ok},
		{"no policy", Config{Replicas: 3}, gslb.Config{}},
		{"latency policy", Config{Replicas: 3}, gslb.Config{Policy: gslb.PolicyLatency}},
		{"rtt matrix", Config{Replicas: 3}, gslb.Config{Policy: gslb.PolicyLeastLoad, RTT: map[string][]float64{"global": {1, 2, 3}}}},
		{"bad weights", Config{Replicas: 3}, gslb.Config{Policy: gslb.PolicyStatic, Weights: []float64{1}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg, tc.gcfg, ts.regions, nil, 1, ts.sample); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
}

func TestGossipDelayPostponesDelivery(t *testing.T) {
	ts := threeRegions()
	// Delay of 1.5 intervals: a push sent at round k is not due at round k+1
	// (10 s later) and arrives at round k+2.
	p := newTestPlane(t, Config{Replicas: 2, Delay: 15 * simclock.Second}, gslb.Config{Policy: gslb.PolicyLeastLoad}, ts)
	step := 10 * simclock.Second
	now := simclock.Time(0).Add(step)
	p.ProbeTick(now)
	p.GossipTick(now) // sends, nothing due yet
	if got := p.Stats().Delivered; got != 0 {
		t.Fatalf("delivered %d before the delay elapsed", got)
	}
	now = now.Add(step)
	p.GossipTick(now) // due at now >= sentAt+15s? 20 >= 25 is false
	if got := p.Stats().Delivered; got != 0 {
		t.Fatalf("delivered %d one round early", got)
	}
	now = now.Add(step)
	p.GossipTick(now) // 30 >= 25: delivered
	if got := p.Stats().Delivered; got == 0 {
		t.Fatalf("nothing delivered after the delay elapsed")
	}
}

// FuzzPlaneRounds drives a plane through a byte-encoded schedule and checks
// the plane's invariants after every operation.  The header picks the
// replica count (1–5), the region count (1–4), the routing policy and the
// gossip tuning; each following (op, arg) pair is a probe tick whose arg
// sets every region's telemetry, a gossip tick, an Isolate of the replicas
// in arg's bitmask, or a Heal.  A one-replica plane is also run against a
// standalone gslb.Director fed the same telemetry: their tables, states and
// transition logs must agree.
func FuzzPlaneRounds(f *testing.F) {
	f.Add([]byte{2, 10, 0, 0, 1, 1, 0, 0, 3, 1, 0, 0, 1, 0})
	f.Add([]byte{0, 14, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 4, 0, 4, 0, 0, 0})
	f.Add([]byte{4, 7, 29, 0, 5, 1, 0, 2, 3, 0, 255, 1, 0, 1, 0, 3, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 13, 5, 0, 1, 2, 1, 0, 1, 1, 0, 0, 3, 1, 0, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		if len(ops) > 515 {
			ops = ops[:515] // longer schedules add run time, not coverage
		}
		replicas := 1 + int(ops[0])%5
		policies := []gslb.PolicyKind{gslb.PolicyStatic, gslb.PolicyRoundRobin, gslb.PolicyLeastLoad, gslb.PolicyFailover}
		gcfg := gslb.Config{Policy: policies[ops[1]%4]}
		regions := []string{"r0", "r1", "r2", "r3"}[:1+int(ops[1]/4)%4]
		cfg := Config{
			Replicas: replicas,
			Loss:     0.2 * float64(ops[2]%4),
			Delay:    simclock.Duration(ops[2]/4%3) * 5 * simclock.Second,
			Fanout:   int(ops[2] / 12 % 3),
		}
		tel := make([]cloudsim.Telemetry, len(regions))
		for r := range tel {
			tel[r] = cloudsim.Telemetry{Region: regions[r], ActiveVMs: 4, BaselineActive: 4, Capacity: 100}
		}
		sample := func(i int) cloudsim.Telemetry { return tel[i] }
		p, err := New(full(cfg), gcfg, regions, nil, 7, sample)
		if err != nil {
			t.Fatal(err)
		}
		var central *gslb.Director
		if replicas == 1 {
			if central, err = gslb.NewDirector(gcfg, regions, nil, sample); err != nil {
				t.Fatal(err)
			}
		}
		versions := make([][]uint64, replicas)
		for i := range versions {
			versions[i] = make([]uint64, len(regions))
		}
		now := simclock.Time(0)
		for k := 3; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%4, ops[k+1]
			now = now.Add(5 * simclock.Second)
			switch op {
			case 0:
				// Bit r takes region r down; bit r+4 makes it drop requests.
				for r := range tel {
					tel[r].ActiveVMs, tel[r].Capacity = 4, 100
					if arg>>r&1 == 1 {
						tel[r].ActiveVMs, tel[r].Capacity = 0, 0
					}
					tel[r].Served += 10
					if arg>>(r+4)&1 == 1 {
						tel[r].Dropped += 20
					}
				}
				p.ProbeTick(now)
				if central != nil {
					central.Tick(now)
				}
			case 1:
				due := dueDeliveries(p, now)
				p.GossipTick(now)
				// Re-adopting a view already delivered changes nothing: the
				// receiver holds versions at least as new.
				for _, d := range due {
					view, table := append([]Summary(nil), p.reps[d.dst].view...), p.Table(d.dst)
					p.adopt(d.dst, d.view)
					if !reflect.DeepEqual(p.reps[d.dst].view, view) || p.Table(d.dst) != table {
						t.Fatalf("op %d: re-adopting a delivered view changed replica %d", k, d.dst)
					}
				}
			case 2:
				var side []int
				for i := 0; i < replicas; i++ {
					if arg>>i&1 == 1 {
						side = append(side, i)
					}
				}
				p.Isolate(side)
			case 3:
				p.Heal()
			}
			checkPlane(t, p, versions)
			if central != nil {
				if !reflect.DeepEqual(p.Table(0), central.Table()) {
					t.Fatalf("op %d: one-replica table %+v, standalone director %+v", k, *p.Table(0), *central.Table())
				}
				if !reflect.DeepEqual(p.OwnerStates(), replayStates(regions, central.Transitions())) || !reflect.DeepEqual(p.Transitions(), central.Transitions()) {
					t.Fatalf("op %d: one-replica states/transitions diverged from the standalone director", k)
				}
			}
		}
	})
}

// delivery is one message a gossip round is about to deliver.
type delivery struct {
	dst  int
	view []Summary
}

// dueDeliveries lists the messages the next round at now will deliver (due
// and not cut by the partition).
func dueDeliveries(p *Plane, now simclock.Time) []delivery {
	var out []delivery
	for src := range p.lanes {
		for dst, lane := range p.lanes[src] {
			for _, msg := range lane {
				if msg.deliverAt <= now && p.group[src] == p.group[dst] {
					out = append(out, delivery{dst: dst, view: msg.view})
				}
			}
		}
	}
	return out
}

// checkPlane asserts the plane's invariants: per-replica versions never
// decrease and never pass the owner's, each director routes by exactly its
// replica's view, and every sent message is delivered, dropped or in flight.
// versions holds the previous check's versions and is updated.
func checkPlane(t *testing.T, p *Plane, versions [][]uint64) {
	t.Helper()
	for i, rep := range p.reps {
		for r, s := range rep.view {
			if s.Version < versions[i][r] {
				t.Fatalf("replica %d region %d version fell %d -> %d", i, r, versions[i][r], s.Version)
			}
			versions[i][r] = s.Version
			if own := p.reps[p.owner(r)].view[r].Version; s.Version > own {
				t.Fatalf("replica %d region %d version %d passes the owner's %d", i, r, s.Version, own)
			}
		}
		if got, want := p.Table(i), viewTable(t, rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d routes by %+v, its view %+v implies %+v", i, *got, rep.view, *want)
		}
	}
	if st := p.Stats(); st.Sent != st.Delivered+st.Dropped+inFlight(p) {
		t.Fatalf("message conservation violated: %+v (in flight %d)", st, inFlight(p))
	}
}

// viewTable is the routing table that rep's view implies: the table of a
// fresh director with rep's configuration once it has adopted every summary
// of the view.
func viewTable(t *testing.T, rep *replica) *gslb.Table {
	t.Helper()
	d, err := gslb.NewDirector(rep.dir.Config(), rep.dir.Regions(), rep.dir.Streams(), func(int) cloudsim.Telemetry { return cloudsim.Telemetry{} })
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range rep.view {
		d.Adopt(r, s.State, s.Capacity)
	}
	return d.Table()
}

// replayStates folds a standalone director's transition log over regions
// that all start healthy.  Such a director changes a state only by probing
// it, and logs every probe that does, so the fold is its current states.
func replayStates(regions []string, trans []gslb.Transition) []gslb.HealthState {
	out := make([]gslb.HealthState, len(regions))
	for _, tr := range trans {
		out[slices.Index(regions, tr.Region)] = tr.To
	}
	return out
}

// FuzzGossipAdopt checks adopt, the merge every gossip delivery runs,
// against the algebra of a last-writer-wins register per region.  The input
// bytes encode the replica count (3 or 4), each replica's starting view over
// four regions and two incoming views A and B, one version per region; the
// summary at version v is a pure function of (region, v), as the region's
// owner guarantees.  For every replica:
//   - adopting A then B leaves its view, and the routing table its director
//     builds from the adopted states and capacities, equal to adopting B
//     then A (the transition logs may differ);
//   - adopting A twice equals adopting it once;
//   - no version in its view ever decreases.
func FuzzGossipAdopt(f *testing.F) {
	f.Add([]byte{0, 5, 5, 5, 5, 9, 0, 2, 7, 1, 1, 1, 1, 0, 0, 0, 0, 3, 6, 2, 8, 4, 6, 1, 9})
	f.Add([]byte{1, 7, 3, 0, 12, 2, 2, 2, 2, 15, 1, 0, 4, 6, 6, 6, 6, 3, 3, 3, 3, 1, 9, 9, 1, 4, 4, 5, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 3, 4, 4, 3, 2, 1, 2, 2, 2, 2, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		const regions = 4
		next := func() uint64 {
			if len(in) == 0 {
				return 0
			}
			v := uint64(in[0] % 16)
			in = in[1:]
			return v
		}
		replicas := 3 + int(next()%2)
		base := make([][]Summary, replicas)
		for i := range base {
			base[i] = make([]Summary, regions)
			for r := range base[i] {
				base[i][r] = summaryAt(r, next())
			}
		}
		var a, b []Summary
		for r := 0; r < regions; r++ {
			a = append(a, summaryAt(r, next()))
		}
		for r := 0; r < regions; r++ {
			b = append(b, summaryAt(r, next()))
		}

		// merged adopts the views in order into every replica of a plane
		// that starts from base, checking that no version decreases.
		merged := func(views ...[]Summary) *Plane {
			names := []string{"r0", "r1", "r2", "r3"}
			tel := func(i int) cloudsim.Telemetry {
				return cloudsim.Telemetry{Region: names[i], ActiveVMs: 4, BaselineActive: 4, Capacity: 100}
			}
			p, err := New(full(Config{Replicas: replicas}), gslb.Config{Policy: gslb.PolicyLeastLoad}, names, nil, 1, tel)
			if err != nil {
				t.Fatal(err)
			}
			for i, rep := range p.reps {
				copy(rep.view, base[i])
				for r, s := range rep.view {
					rep.dir.Adopt(r, s.State, s.Capacity)
				}
			}
			for _, view := range views {
				for i, rep := range p.reps {
					before := slices.Clone(rep.view)
					p.adopt(i, view)
					for r := range before {
						if rep.view[r].Version < before[r].Version {
							t.Fatalf("replica %d region %d version fell %d -> %d adopting %+v", i, r, before[r].Version, rep.view[r].Version, view)
						}
					}
				}
			}
			return p
		}
		same := func(what string, p, q *Plane) {
			t.Helper()
			for i := range p.reps {
				if !reflect.DeepEqual(p.reps[i].view, q.reps[i].view) {
					t.Fatalf("%s: replica %d view %+v, want %+v", what, i, p.reps[i].view, q.reps[i].view)
				}
				if !reflect.DeepEqual(p.Table(i), q.Table(i)) {
					t.Fatalf("%s: replica %d table %+v, want %+v", what, i, *p.Table(i), *q.Table(i))
				}
			}
		}
		same("A then B against B then A", merged(a, b), merged(b, a))
		same("A twice against A once", merged(a, a), merged(a))
	})
}

// summaryAt is region r's summary at version v: a pure function of the two,
// cycling through every health state and a spread of capacities.
func summaryAt(r int, v uint64) Summary {
	k := uint64(r)*5 + v
	return Summary{Version: v, State: gslb.HealthState(k % 4), Capacity: float64(k%7) / 2}
}
