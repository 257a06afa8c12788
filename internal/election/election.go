// Package election implements the fault-tolerant leader election used to
// pick the leader Virtual Machine Controller among the controllers of the
// different cloud regions.  The paper relies on the algorithm of Avresky and
// Natchev ("Dynamic reconfiguration in computer clusters with irregular
// topologies in the presence of multiple node and link failures", IEEE ToC
// 2005), whose relevant property for ACM is that a single leader is
// (re-)elected among the controllers that can still reach each other, even
// after multiple node and link failures.
//
// This package reproduces that property with a deterministic coordinator
// election scoped to overlay partitions: every alive controller floods its
// candidacy over the live overlay links, and within each connected partition
// the node with the highest priority (ties broken by smallest name) becomes
// the leader.  The election is rerun whenever a membership or connectivity
// change is observed.
package election

import (
	"fmt"
	"sort"

	"repro/internal/overlay"
)

// Member is one electable controller.
type Member struct {
	// Name is the controller name; it must match the overlay node name.
	Name string
	// Priority ranks candidates: higher priority wins.  The paper's
	// deployment gives every controller the same role, so by default the
	// priority encodes the size of the region the controller manages (a
	// leader on a bigger, better-connected region is preferable), but any
	// consistent assignment works.
	Priority int
}

// Result is the outcome of one election round as observed by one partition.
type Result struct {
	// Leader is the elected controller.
	Leader string
}

// Cluster manages leader election among a fixed membership over an overlay
// network.
type Cluster struct {
	net     *overlay.Network
	members map[string]Member
	leaders map[string]string // partition representative -> leader
	// counters
	elections uint64
}

// NewCluster builds a cluster over the given overlay.  Every member must
// exist as an overlay node (it is added if missing).
func NewCluster(net *overlay.Network, members []Member) (*Cluster, error) {
	if net == nil {
		return nil, fmt.Errorf("election: nil overlay network")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("election: empty membership")
	}
	c := &Cluster{net: net, members: map[string]Member{}, leaders: map[string]string{}}
	for _, m := range members {
		if m.Name == "" {
			return nil, fmt.Errorf("election: member with empty name")
		}
		if _, dup := c.members[m.Name]; dup {
			return nil, fmt.Errorf("election: duplicate member %q", m.Name)
		}
		if !net.HasNode(m.Name) {
			net.AddNode(m.Name)
		}
		c.members[m.Name] = m
	}
	c.Elect()
	return c, nil
}

// Elections returns how many election rounds have been run.
func (c *Cluster) Elections() uint64 { return c.elections }

// alivePartitionMembers returns the cluster members alive and reachable from
// the given member, sorted.
func (c *Cluster) alivePartitionMembers(from string) []string {
	part := c.net.Partition(from)
	var out []string
	for _, n := range part {
		if _, ok := c.members[n]; ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Elect runs a full election round: each partition of alive members
// independently elects the reachable member with the highest priority.  The
// method returns the results, one per partition, ordered by leader name.
func (c *Cluster) Elect() []Result {
	c.elections++
	c.leaders = map[string]string{}

	seen := map[string]bool{}
	var results []Result
	for name := range c.members {
		if !c.net.NodeAlive(name) || seen[name] {
			continue
		}
		partition := c.alivePartitionMembers(name)
		if len(partition) == 0 {
			continue
		}
		for _, p := range partition {
			seen[p] = true
		}
		leader := c.pickLeader(partition)
		results = append(results, Result{Leader: leader})
		for _, p := range partition {
			c.leaders[p] = leader
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Leader < results[j].Leader })
	return results
}

// pickLeader returns the highest-priority member of the partition, breaking
// ties by the lexicographically smallest name so the choice is deterministic.
func (c *Cluster) pickLeader(partition []string) string {
	best := ""
	bestPriority := 0
	for _, name := range partition {
		m := c.members[name]
		if best == "" || m.Priority > bestPriority || (m.Priority == bestPriority && name < best) {
			best = name
			bestPriority = m.Priority
		}
	}
	return best
}

// GlobalLeader returns the leader of the partition containing the most
// members — the "primary" side of a partition — and whether a unique such
// partition exists.  With a fully connected overlay this is simply the single
// elected leader.
func (c *Cluster) GlobalLeader() (string, bool) {
	counts := map[string]int{}
	for member, leader := range c.leaders {
		if c.net.NodeAlive(member) {
			counts[leader]++
		}
	}
	best, bestCount, unique := "", 0, false
	for leader, cnt := range counts {
		switch {
		case cnt > bestCount:
			best, bestCount, unique = leader, cnt, true
		case cnt == bestCount:
			unique = false
		}
	}
	return best, unique && best != ""
}

// ReportNodeFailure marks the controller as failed in the overlay and reruns
// the election.  It returns the new results.
func (c *Cluster) ReportNodeFailure(name string) []Result {
	c.net.FailNode(name)
	return c.Elect()
}

// ReportNodeRecovery revives the controller and reruns the election.
func (c *Cluster) ReportNodeRecovery(name string) []Result {
	c.net.RestoreNode(name)
	return c.Elect()
}

// ReportLinkFailure marks an overlay link as failed and reruns the election
// (connectivity may have changed, splitting or merging partitions).
func (c *Cluster) ReportLinkFailure(a, b string) []Result {
	c.net.FailLink(a, b)
	return c.Elect()
}

// ReportLinkRecovery restores an overlay link and reruns the election.
func (c *Cluster) ReportLinkRecovery(a, b string) []Result {
	c.net.RestoreLink(a, b)
	return c.Elect()
}
