package overlay

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func testNetwork(t *testing.T) *Network {
	t.Helper()
	n := New()
	mustLink := func(a, b string, lat float64) {
		if err := n.AddLink(a, b, lat); err != nil {
			t.Fatalf("AddLink(%s,%s): %v", a, b, err)
		}
	}
	// A small irregular topology:
	//   a --1-- b --1-- c
	//   a ------5------ c
	//   c --2-- d
	mustLink("a", "b", 1)
	mustLink("b", "c", 1)
	mustLink("a", "c", 5)
	mustLink("c", "d", 2)
	return n
}

func TestAddLinkValidation(t *testing.T) {
	n := New()
	if err := n.AddLink("a", "a", 1); err == nil {
		t.Errorf("self link should be rejected")
	}
	if err := n.AddLink("a", "b", 0); err == nil {
		t.Errorf("zero latency should be rejected")
	}
	if err := n.AddLink("a", "b", -3); err == nil {
		t.Errorf("negative latency should be rejected")
	}
	if err := n.AddLink("a", "b", 2); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	// Updating an existing link changes its latency.
	if err := n.AddLink("b", "a", 9); err != nil {
		t.Fatalf("link update rejected: %v", err)
	}
	if got := n.Latency("a", "b"); got != 9 {
		t.Fatalf("updated latency = %v, want 9", got)
	}
}

func TestNodesAndAliveNodes(t *testing.T) {
	n := testNetwork(t)
	want := []string{"a", "b", "c", "d"}
	if got := n.Nodes(); !equalStrings(got, want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	n.FailNode("b")
	for _, alive := range []string{"a", "c", "d"} {
		if !n.NodeAlive(alive) {
			t.Fatalf("%s should be up", alive)
		}
	}
	if n.NodeAlive("b") {
		t.Fatalf("b should be down")
	}
	if !n.HasNode("b") {
		t.Fatalf("b should still exist")
	}
	if n.FailNode("zzz") {
		t.Fatalf("failing an unknown node should report false")
	}
	if !n.RestoreNode("b") {
		t.Fatalf("restore of known node should report true")
	}
	if n.RestoreNode("zzz") {
		t.Fatalf("restore of unknown node should report false")
	}
}

func TestShortestRoutePrefersLowLatencyPath(t *testing.T) {
	n := testNetwork(t)
	r, err := n.ShortestRoute("a", "c")
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	// a->b->c costs 2, the direct a->c link costs 5.
	if r.LatencyMs != 2 {
		t.Fatalf("latency = %v, want 2 (via b)", r.LatencyMs)
	}
	if len(r.Path) != 3 || r.Path[1] != "b" {
		t.Fatalf("path = %v, want a->b->c", r.Path)
	}
	if r.String() == "" {
		t.Fatalf("route string should not be empty")
	}
}

func TestShortestRouteSameNode(t *testing.T) {
	n := testNetwork(t)
	r, err := n.ShortestRoute("a", "a")
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if len(r.Path) != 1 || r.LatencyMs != 0 {
		t.Fatalf("self route should have zero hops and latency, got %+v", r)
	}
}

func TestShortestRouteErrors(t *testing.T) {
	n := testNetwork(t)
	if _, err := n.ShortestRoute("a", "nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown destination should yield ErrUnknownNode, got %v", err)
	}
	n.FailNode("d")
	if _, err := n.ShortestRoute("a", "d"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("route to a failed node should be unreachable, got %v", err)
	}
	n.RestoreNode("d")
	n.AddNode("island")
	if _, err := n.ShortestRoute("a", "island"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("route to an isolated node should be unreachable, got %v", err)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	n := testNetwork(t)
	if !n.FailLink("a", "b") {
		t.Fatalf("FailLink on existing link should return true")
	}
	if n.FailLink("a", "zzz") {
		t.Fatalf("FailLink on missing link should return false")
	}
	if !n.LinkFailed("b", "a") {
		t.Fatalf("link should be marked failed (order-insensitive)")
	}
	r, err := n.ShortestRoute("a", "c")
	if err != nil {
		t.Fatalf("route after link failure: %v", err)
	}
	if r.LatencyMs != 5 || len(r.Path) != 2 {
		t.Fatalf("after failing a-b the route should fall back to the direct a-c link, got %+v", r)
	}
	if !n.RestoreLink("a", "b") {
		t.Fatalf("RestoreLink should return true")
	}
	if n.RestoreLink("x", "y") {
		t.Fatalf("RestoreLink on missing link should return false")
	}
	r, _ = n.ShortestRoute("a", "c")
	if r.LatencyMs != 2 {
		t.Fatalf("after restoring a-b the cheap path should be used again, got %v", r.LatencyMs)
	}
}

func TestNodeFailureDisablesTransit(t *testing.T) {
	n := testNetwork(t)
	n.FailNode("b")
	r, err := n.ShortestRoute("a", "c")
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if r.LatencyMs != 5 {
		t.Fatalf("with b down the direct a-c link must be used, got %v", r.LatencyMs)
	}
}

func TestLatencyAndReachable(t *testing.T) {
	n := testNetwork(t)
	if got := n.Latency("a", "d"); got != 4 {
		t.Fatalf("latency a-d = %v, want 4", got)
	}
	if !n.Reachable("a", "d") {
		t.Fatalf("a-d should be reachable")
	}
	n.FailLink("c", "d")
	if !math.IsInf(n.Latency("a", "d"), 1) {
		t.Fatalf("latency to an unreachable node should be +Inf")
	}
	if n.Reachable("a", "d") {
		t.Fatalf("a-d should be unreachable after failing c-d")
	}
}

func TestPartition(t *testing.T) {
	n := testNetwork(t)
	if got := n.Partition("a"); !equalStrings(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("partition of a = %v", got)
	}
	n.FailLink("c", "d")
	if got := n.Partition("d"); !equalStrings(got, []string{"d"}) {
		t.Fatalf("partition of d after isolation = %v", got)
	}
	if got := n.Partition("a"); !equalStrings(got, []string{"a", "b", "c"}) {
		t.Fatalf("partition of a after failing c-d = %v", got)
	}
	n.FailNode("a")
	if n.Partition("a") != nil {
		t.Fatalf("partition of a failed node should be nil")
	}
}

func TestLatencyMatrixAndLinks(t *testing.T) {
	n := testNetwork(t)
	nodes := []string{"a", "b", "c"}
	v := n.View(nodes)
	check := func(stage string, want [3][3]float64) {
		t.Helper()
		for i := range nodes {
			for j := range nodes {
				if got := v.Latency(i, j); got != want[i][j] {
					t.Fatalf("%s: latency %s->%s = %v, want %v", stage, nodes[i], nodes[j], got, want[i][j])
				}
			}
		}
	}
	check("initial", [3][3]float64{{0, 1, 2}, {1, 0, 1}, {2, 1, 0}})
	n.FailLink("a", "b")
	if !n.LinkFailed("a", "b") || n.LinkFailed("b", "c") {
		t.Fatalf("only a-b should be marked failed")
	}
	check("a-b failed", [3][3]float64{{0, 6, 5}, {6, 0, 1}, {5, 1, 0}})
}

func TestPaperOverlayTopology(t *testing.T) {
	n := PaperOverlay()
	for _, region := range []string{"region1", "region2", "region3"} {
		if !n.HasNode(region) {
			t.Fatalf("paper overlay missing %s", region)
		}
	}
	// Direct links should be the preferred routes.
	if lat := n.Latency("region2", "region3"); lat != 8 {
		t.Fatalf("Frankfurt-Munich latency = %v, want 8", lat)
	}
	// Failing the direct Ireland-Munich link must reroute via Frankfurt or the
	// transit node, keeping the pair connected.
	n.FailLink("region1", "region3")
	r, err := n.ShortestRoute("region1", "region3")
	if err != nil {
		t.Fatalf("paper overlay should survive a single link failure: %v", err)
	}
	if len(r.Path) < 3 {
		t.Fatalf("rerouted path should use an intermediate node, got %v", r.Path)
	}
	if r.LatencyMs <= 8 {
		t.Fatalf("rerouted latency should exceed the direct Frankfurt-Munich link, got %v", r.LatencyMs)
	}
}

// Property: for random failure subsets, any route returned is a valid path
// over live links with the latency equal to the sum of its hops, and never
// uses a failed link.
func TestRouteValidityProperty(t *testing.T) {
	base := [][3]interface{}{
		{"a", "b", 1.0}, {"b", "c", 1.0}, {"a", "c", 5.0}, {"c", "d", 2.0},
		{"d", "e", 1.0}, {"b", "e", 4.0}, {"a", "e", 9.0},
	}
	f := func(failMask uint8) bool {
		n := New()
		type lk struct {
			a, b string
			lat  float64
		}
		var links []lk
		for _, l := range base {
			a, b, lat := l[0].(string), l[1].(string), l[2].(float64)
			_ = n.AddLink(a, b, lat)
			links = append(links, lk{a, b, lat})
		}
		for i, l := range links {
			if failMask&(1<<uint(i)) != 0 {
				n.FailLink(l.a, l.b)
			}
		}
		r, err := n.ShortestRoute("a", "e")
		if err != nil {
			return errors.Is(err, ErrUnreachable)
		}
		// Validate the path hop by hop.
		total := 0.0
		for i := 0; i+1 < len(r.Path); i++ {
			x, y := r.Path[i], r.Path[i+1]
			if n.LinkFailed(x, y) {
				return false
			}
			lat := math.Inf(1)
			for _, l := range links {
				if (l.a == x && l.b == y) || (l.a == y && l.b == x) {
					if !n.LinkFailed(l.a, l.b) && l.lat < lat {
						lat = l.lat
					}
				}
			}
			if math.IsInf(lat, 1) {
				return false // hop not backed by any live link
			}
			total += lat
		}
		return math.Abs(total-r.LatencyMs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestShortestRouteTieBreaksByName pins the route between two equally short
// paths: on the square a-b-d / a-c-d every fresh network picks a->b->d (the
// path through the smaller node name), never the map iteration order.
func TestShortestRouteTieBreaksByName(t *testing.T) {
	for i := 0; i < 200; i++ {
		n := New()
		_ = n.AddLink("a", "b", 1)
		_ = n.AddLink("b", "d", 1)
		_ = n.AddLink("a", "c", 1)
		_ = n.AddLink("c", "d", 1)
		r, err := n.ShortestRoute("a", "d")
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(r.Path, "->"); got != "a->b->d" || r.LatencyMs != 2 {
			t.Fatalf("network %d: route %s (%v ms), want a->b->d (2 ms)", i, got, r.LatencyMs)
		}
	}
}

// referenceLatency is an independent Bellman-Ford over the live overlay,
// summing each path's links from the source outward like Dijkstra does.
func referenceLatency(n *Network, from, to string) float64 {
	if !n.NodeAlive(from) || !n.NodeAlive(to) {
		return math.Inf(1)
	}
	dist := map[string]float64{from: 0}
	for range n.Nodes() {
		for _, l := range n.links {
			if l.failed || !n.NodeAlive(l.a) || !n.NodeAlive(l.b) {
				continue
			}
			for _, e := range [][2]string{{l.a, l.b}, {l.b, l.a}} {
				if d, ok := dist[e[0]]; ok {
					if cur, seen := dist[e[1]]; !seen || d+l.latencyMs < cur {
						dist[e[1]] = d + l.latencyMs
					}
				}
			}
		}
	}
	if d, ok := dist[to]; ok {
		return d
	}
	return math.Inf(1)
}

// TestRouteTableMatchesReference checks every pair of the overlays the
// deployments build — the paper overlay and a uniform mesh — under every
// combination of failed links and failed nodes against the reference, bit
// for bit, after each mutation.
func TestRouteTableMatchesReference(t *testing.T) {
	mesh := New()
	names := []string{"east", "north", "south", "west"}
	for i, a := range names {
		for _, b := range names[i+1:] {
			_ = mesh.AddLink(a, b, 20)
		}
	}
	for _, n := range []*Network{PaperOverlay(), mesh} {
		links := append([]*link(nil), sortedLinks(n)...)
		nodes := n.Nodes()
		for mask := 0; mask < 1<<len(links); mask++ {
			for i, l := range links {
				if mask&(1<<i) != 0 {
					n.FailLink(l.a, l.b)
				} else {
					n.RestoreLink(l.a, l.b)
				}
			}
			down := nodes[mask%len(nodes)]
			if mask%3 == 0 {
				n.FailNode(down)
			}
			for _, a := range nodes {
				for _, b := range nodes {
					if got, want := n.Latency(a, b), referenceLatency(n, a, b); got != want {
						t.Fatalf("mask %b: Latency(%s,%s) = %v, reference %v", mask, a, b, got, want)
					}
					if got, want := n.Reachable(a, b), !math.IsInf(referenceLatency(n, a, b), 1); got != want {
						t.Fatalf("mask %b: Reachable(%s,%s) = %v, want %v", mask, a, b, got, want)
					}
				}
			}
			n.RestoreNode(down)
		}
	}
}

func sortedLinks(n *Network) []*link {
	keys := make([]string, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*link, len(keys))
	for i, k := range keys {
		out[i] = n.links[k]
	}
	return out
}

// TestRouteTableIsLazy pins that mutations only invalidate the table: it is
// rebuilt by the first read after them, not by the mutators.
func TestRouteTableIsLazy(t *testing.T) {
	n := PaperOverlay()
	if n.routes.Load() != nil {
		t.Fatal("building an overlay must not build its route table")
	}
	before := n.Latency("region2", "region3")
	built := n.routes.Load()
	if n.Latency("region3", "region2"); n.routes.Load() != built {
		t.Fatal("a read without a mutation in between must reuse the table")
	}
	n.FailLink("region2", "region3")
	if n.routes.Load() != built {
		t.Fatal("a mutation must not rebuild the table eagerly")
	}
	if after := n.Latency("region2", "region3"); after <= before {
		t.Fatalf("latency after failing the direct link = %v, want more than %v", after, before)
	}
	if n.routes.Load() == built {
		t.Fatal("the first read after a mutation must rebuild the table")
	}
}

// TestConcurrentFirstReads races readers onto a freshly invalidated table;
// run under -race it checks the lazy build is safe for concurrent readers.
func TestConcurrentFirstReads(t *testing.T) {
	n := PaperOverlay()
	// Each goroutine also owns a view, kept across rounds, as each lane's
	// dispatcher does.
	views := make([]*LatencyView, 8)
	for g := range views {
		views[g] = n.View([]string{"region2", "region3"})
	}
	for round := 0; round < 20; round++ {
		if round%2 == 0 {
			n.FailLink("region2", "region3")
		} else {
			n.RestoreLink("region2", "region3")
		}
		want := referenceLatency(n, "region2", "region3")
		var wg sync.WaitGroup
		errs := make(chan float64, 2*len(views))
		for g := range views {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := n.Latency("region2", "region3"); got != want {
					errs <- got
				}
				if got := views[g].Latency(0, 1); got != want {
					errs <- got
				}
			}()
		}
		wg.Wait()
		close(errs)
		for got := range errs {
			t.Fatalf("round %d: concurrent Latency = %v, want %v", round, got, want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkLatencyPaperOverlay(b *testing.B) {
	n := PaperOverlay()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Latency("region1", "region3")
	}
}

func BenchmarkShortestRoutePaperOverlay(b *testing.B) {
	n := PaperOverlay()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.ShortestRoute("region1", "region3"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLatencyViewMatchesLatency checks that a view reads exactly what
// Latency reads for every ordered pair, including an unknown node, and keeps
// agreeing across a link failure, a node failure and a node added after the
// view was built.
func TestLatencyViewMatchesLatency(t *testing.T) {
	n := PaperOverlay()
	nodes := append(n.Nodes(), "late", "unknown")
	v := n.View(nodes)
	check := func(stage string) {
		t.Helper()
		for i, a := range nodes {
			for j, b := range nodes {
				got, want := v.Latency(i, j), n.Latency(a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: view %s->%s = %v, Latency = %v", stage, a, b, got, want)
				}
			}
		}
	}
	check("initial")
	if !n.FailLink("region1", "region2") {
		t.Fatal("paper overlay has no region1-region2 link")
	}
	check("link failed")
	n.FailNode("transit-ams")
	check("node failed")
	if err := n.AddLink("late", "region3", 7); err != nil {
		t.Fatal(err)
	}
	check("node added")
}
