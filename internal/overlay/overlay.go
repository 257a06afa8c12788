// Package overlay models the interconnection network among the Virtual
// Machine Controllers of the different cloud regions.  Following Section III
// of the paper, "the interconnection among the various controllers is
// actuated via an overlay network, which selects the path with the smallest
// latency among two given controllers, and is able to reroute connections in
// case of a network link failure".
//
// The overlay is a weighted undirected graph: vertices are controller nodes
// (one per cloud region, plus optional relay nodes), edges carry latencies.
// Routing uses Dijkstra's shortest-path algorithm over the live part of the
// graph, so failing a link or a node transparently reroutes traffic over the
// remaining paths.  Routes are memoized: the first read after a mutation
// builds an immutable all-pairs route table, and every later read until the
// next mutation is a table lookup.
package overlay

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// ErrUnknownNode is returned when a route endpoint does not exist.
var ErrUnknownNode = errors.New("overlay: unknown node")

// ErrUnreachable is returned when no live path connects two nodes.
var ErrUnreachable = errors.New("overlay: destination unreachable")

// link is one undirected edge of the overlay.
type link struct {
	a, b      string
	latencyMs float64
	failed    bool
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Network is the overlay graph.  Mutations (AddNode, AddLink and the
// Fail/Restore methods) need exclusive access.  Between mutations any number
// of goroutines may read routes concurrently: the shard lanes of the event
// loop forward requests over the overlay in parallel.
type Network struct {
	nodes map[string]bool // value: node alive?
	links map[string]*link

	// version counts mutations: every mutator bumps it, which invalidates
	// routes.  routes is the route table of the version it is tagged with,
	// built lazily by the first read after a mutation and published
	// atomically; concurrent first readers build identical tables.
	version uint64
	routes  atomic.Pointer[routeTable]
}

// routeTable is an immutable all-pairs snapshot of the live overlay, over the
// nodes in name order.
type routeTable struct {
	version uint64
	names   []string
	index   map[string]int
	// dist[i*len(names)+j] is the latency of the shortest live route from
	// node i to node j (+Inf when unreachable); prev holds the predecessor
	// of j on that route (-1 for none).
	dist []float64
	prev []int32
}

// table returns the route table of the current version, building it on the
// first read after a mutation.
func (n *Network) table() *routeTable {
	if t := n.routes.Load(); t != nil && t.version == n.version {
		return t
	}
	t := n.buildTable()
	n.routes.Store(t)
	return t
}

// buildTable runs Dijkstra's algorithm from every live node.  Ties between
// equally short routes are broken by node name: the frontier node with the
// smallest index (name order) is settled first, and a later relaxation only
// wins when strictly shorter, so the chosen path never depends on map
// iteration order.
func (n *Network) buildTable() *routeTable {
	names := n.Nodes()
	size := len(names)
	t := &routeTable{
		version: n.version,
		names:   names,
		index:   make(map[string]int, size),
		dist:    make([]float64, size*size),
		prev:    make([]int32, size*size),
	}
	for i, name := range names {
		t.index[name] = i
	}
	type edge struct {
		to int
		ms float64
	}
	adj := make([][]edge, size)
	for _, l := range n.links {
		if l.failed || !n.nodes[l.a] || !n.nodes[l.b] {
			continue
		}
		a, b := t.index[l.a], t.index[l.b]
		adj[a] = append(adj[a], edge{b, l.latencyMs})
		adj[b] = append(adj[b], edge{a, l.latencyMs})
	}
	for i := range t.dist {
		t.dist[i], t.prev[i] = math.Inf(1), -1
	}
	settled := make([]bool, size)
	for src, name := range names {
		if !n.nodes[name] {
			continue
		}
		dist, prev := t.dist[src*size:(src+1)*size], t.prev[src*size:(src+1)*size]
		clear(settled)
		dist[src] = 0
		for {
			cur := -1
			for v, d := range dist {
				if !settled[v] && d < math.Inf(1) && (cur < 0 || d < dist[cur]) {
					cur = v
				}
			}
			if cur < 0 {
				break
			}
			settled[cur] = true
			for _, e := range adj[cur] {
				if nd := dist[cur] + e.ms; nd < dist[e.to] {
					dist[e.to], prev[e.to] = nd, int32(cur)
				}
			}
		}
	}
	return t
}

// latency returns the table latency between two nodes, +Inf when either is
// unknown or no live route connects them.
func (t *routeTable) latency(from, to string) float64 {
	i, okFrom := t.index[from]
	j, okTo := t.index[to]
	if !okFrom || !okTo {
		return math.Inf(1)
	}
	return t.dist[i*len(t.names)+j]
}

// New returns an empty overlay network.
func New() *Network {
	return &Network{nodes: map[string]bool{}, links: map[string]*link{}}
}

// AddNode registers a controller node.  Adding an existing node is a no-op
// (and revives it if it was failed).
func (n *Network) AddNode(name string) {
	n.nodes[name] = true
	n.version++
}

// HasNode reports whether the node exists (failed or not).
func (n *Network) HasNode(name string) bool {
	_, ok := n.nodes[name]
	return ok
}

// NodeAlive reports whether the node exists and is alive.
func (n *Network) NodeAlive(name string) bool { return n.nodes[name] }

// Nodes returns all node names, sorted.
func (n *Network) Nodes() []string {
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddLink creates (or updates) the undirected link between a and b with the
// given latency in milliseconds.  Both endpoints are created if missing.
func (n *Network) AddLink(a, b string, latencyMs float64) error {
	if a == b {
		return fmt.Errorf("overlay: self link on %q", a)
	}
	if latencyMs <= 0 {
		return fmt.Errorf("overlay: non-positive latency %v between %q and %q", latencyMs, a, b)
	}
	if !n.HasNode(a) {
		n.AddNode(a)
	}
	if !n.HasNode(b) {
		n.AddNode(b)
	}
	n.version++
	key := linkKey(a, b)
	if l, ok := n.links[key]; ok {
		l.latencyMs = latencyMs
		return nil
	}
	n.links[key] = &link{a: a, b: b, latencyMs: latencyMs}
	return nil
}

// HasLink reports whether a link joins a and b (failed or not).
func (n *Network) HasLink(a, b string) bool {
	_, ok := n.links[linkKey(a, b)]
	return ok
}

// FailLink marks the link between a and b as failed; routes are recomputed
// around it.  It reports whether such a link exists.
func (n *Network) FailLink(a, b string) bool {
	l, ok := n.links[linkKey(a, b)]
	if !ok {
		return false
	}
	l.failed = true
	n.version++
	return true
}

// RestoreLink brings a previously failed link back.  It reports whether such
// a link exists.
func (n *Network) RestoreLink(a, b string) bool {
	l, ok := n.links[linkKey(a, b)]
	if !ok {
		return false
	}
	l.failed = false
	n.version++
	return true
}

// FailNode marks a node as failed: all its links become unusable until the
// node is restored.  It reports whether the node exists.
func (n *Network) FailNode(name string) bool {
	if !n.HasNode(name) {
		return false
	}
	n.nodes[name] = false
	n.version++
	return true
}

// RestoreNode revives a failed node.  It reports whether the node exists.
func (n *Network) RestoreNode(name string) bool {
	if !n.HasNode(name) {
		return false
	}
	n.nodes[name] = true
	n.version++
	return true
}

// Route is a path through the overlay with its end-to-end latency.
type Route struct {
	// Path is the ordered list of nodes from source to destination
	// (inclusive).
	Path []string
	// LatencyMs is the sum of link latencies along the path.
	LatencyMs float64
}

// String renders the route as "a -> b -> c (12.3 ms)".
func (r Route) String() string {
	return fmt.Sprintf("%s (%.1f ms)", strings.Join(r.Path, " -> "), r.LatencyMs)
}

// ShortestRoute returns the minimum-latency live path between two nodes,
// read from the route table (Dijkstra's algorithm, ties broken by node name).
// Failed links and failed nodes are excluded, so the returned route is the
// one the overlay would actually use after rerouting around failures.
func (n *Network) ShortestRoute(from, to string) (Route, error) {
	if !n.HasNode(from) || !n.HasNode(to) {
		return Route{}, fmt.Errorf("%w: %q or %q", ErrUnknownNode, from, to)
	}
	if !n.nodes[from] || !n.nodes[to] {
		return Route{}, fmt.Errorf("%w: %q -> %q (endpoint down)", ErrUnreachable, from, to)
	}
	if from == to {
		return Route{Path: []string{from}}, nil
	}
	t := n.table()
	size := len(t.names)
	src, dst := t.index[from], t.index[to]
	latency := t.dist[src*size+dst]
	if math.IsInf(latency, 1) {
		return Route{}, fmt.Errorf("%w: %q -> %q", ErrUnreachable, from, to)
	}
	var path []string
	for at := dst; at >= 0; at = int(t.prev[src*size+at]) {
		path = append(path, t.names[at])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return Route{Path: path, LatencyMs: latency}, nil
}

// LatencyView reads Latency between a fixed list of nodes by position, so a
// caller on a per-request path resolves the names once instead of on every
// read.  It re-resolves the positions whenever the route table changes, so
// it always agrees with Latency.  A view caches state: give each goroutine
// its own.
type LatencyView struct {
	n     *Network
	nodes []string
	table *routeTable
	pos   []int // pos[i] is the table index of nodes[i], -1 when unknown
}

// View returns a latency view over nodes (copied).
func (n *Network) View(nodes []string) *LatencyView {
	return &LatencyView{n: n, nodes: append([]string(nil), nodes...), pos: make([]int, len(nodes))}
}

// Latency returns the latency of the best live route from nodes[i] to
// nodes[j], +Inf when unreachable.
func (v *LatencyView) Latency(i, j int) float64 {
	t := v.n.table()
	if t != v.table {
		v.table = t
		for k, name := range v.nodes {
			if x, ok := t.index[name]; ok {
				v.pos[k] = x
			} else {
				v.pos[k] = -1
			}
		}
	}
	a, b := v.pos[i], v.pos[j]
	if a < 0 || b < 0 {
		return math.Inf(1)
	}
	return t.dist[a*len(t.names)+b]
}

// Reachable reports whether a live path exists between the two nodes.
func (n *Network) Reachable(from, to string) bool {
	return !math.IsInf(n.table().latency(from, to), 1)
}

// Partition returns the set of alive nodes reachable from the given node
// (including itself), sorted.  Leader election uses it to scope the vote to
// one side of a network partition.
func (n *Network) Partition(from string) []string {
	if !n.nodes[from] {
		return nil
	}
	t := n.table()
	var out []string
	for _, name := range t.names {
		if !math.IsInf(t.latency(from, name), 1) {
			out = append(out, name)
		}
	}
	return out
}

// PaperOverlay builds the overlay connecting the three controllers of the
// paper's testbed — Ireland (region1), Frankfurt (region2) and Munich
// (region3) — with inter-region latencies representative of the public
// internet between those sites, plus a transit node (Amsterdam) that provides
// the alternative paths the overlay needs to reroute around a failed direct
// link.
func PaperOverlay() *Network {
	n := New()
	// Direct controller-to-controller links.
	_ = n.AddLink("region1", "region2", 25) // Ireland  <-> Frankfurt
	_ = n.AddLink("region2", "region3", 8)  // Frankfurt <-> Munich
	_ = n.AddLink("region1", "region3", 33) // Ireland  <-> Munich
	// Transit node providing redundancy.
	_ = n.AddLink("region1", "transit-ams", 15)
	_ = n.AddLink("region2", "transit-ams", 12)
	_ = n.AddLink("region3", "transit-ams", 16)
	return n
}
