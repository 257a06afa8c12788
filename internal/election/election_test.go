package election

import (
	"testing"
	"testing/quick"

	"repro/internal/overlay"
)

func paperCluster(t *testing.T) (*overlay.Network, *Cluster) {
	t.Helper()
	net := overlay.PaperOverlay()
	c, err := NewCluster(net, []Member{
		{Name: "region1", Priority: 6},  // 6 m3.medium VMs
		{Name: "region2", Priority: 12}, // 12 m3.small VMs
		{Name: "region3", Priority: 4},  // 4 private VMs
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return net, c
}

func TestNewClusterValidation(t *testing.T) {
	net := overlay.New()
	if _, err := NewCluster(nil, []Member{{Name: "a"}}); err == nil {
		t.Errorf("nil network should be rejected")
	}
	if _, err := NewCluster(net, nil); err == nil {
		t.Errorf("empty membership should be rejected")
	}
	if _, err := NewCluster(net, []Member{{Name: ""}}); err == nil {
		t.Errorf("empty member name should be rejected")
	}
	if _, err := NewCluster(net, []Member{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Errorf("duplicate member should be rejected")
	}
	// Members not present in the overlay are added automatically.
	c, err := NewCluster(net, []Member{{Name: "solo", Priority: 1}})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if !net.HasNode("solo") {
		t.Fatalf("member should have been added to the overlay")
	}
	if c.Leader("solo") != "solo" {
		t.Fatalf("a single member should lead itself")
	}
}

func TestInitialElectionPicksHighestPriority(t *testing.T) {
	_, c := paperCluster(t)
	leader, ok := c.GlobalLeader()
	if !ok {
		t.Fatalf("a fully connected cluster should have a unique global leader")
	}
	if leader != "region2" {
		t.Fatalf("leader = %q, want region2 (highest priority)", leader)
	}
	for _, m := range []string{"region1", "region2", "region3"} {
		if got := c.Leader(m); got != "region2" {
			t.Fatalf("Leader(%s) = %q, want region2", m, got)
		}
	}
	if c.Leader("region2") != "region2" || c.Leader("region1") == "region1" {
		t.Fatalf("region2 should lead and region1 should not")
	}
	if c.Elections() == 0 {
		t.Fatalf("constructor should have run one election")
	}
	if len(c.members) != 3 {
		t.Fatalf("members = %v", c.members)
	}
}

func TestTieBreakBySmallestName(t *testing.T) {
	net := overlay.New()
	_ = net.AddLink("b", "a", 1)
	_ = net.AddLink("b", "c", 1)
	c, err := NewCluster(net, []Member{{Name: "c", Priority: 5}, {Name: "a", Priority: 5}, {Name: "b", Priority: 1}})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if leader, _ := c.GlobalLeader(); leader != "a" {
		t.Fatalf("tie should break to the smallest name, got %q", leader)
	}
}

func TestLeaderFailureTriggersReElection(t *testing.T) {
	_, c := paperCluster(t)
	before := c.Elections()
	results := c.ReportNodeFailure("region2")
	if c.Elections() != before+1 {
		t.Fatalf("a node failure should run one election, ran %d", c.Elections()-before)
	}
	if len(results) != 1 {
		t.Fatalf("expected a single partition result, got %d", len(results))
	}
	leader, ok := c.GlobalLeader()
	if !ok || leader != "region1" {
		t.Fatalf("new leader = %q, want region1 (next highest priority)", leader)
	}
	if got := c.Leader("region2"); got != "" {
		t.Fatalf("a failed node should observe no leader, got %q", got)
	}
	// Recovery brings the original leader back.
	c.ReportNodeRecovery("region2")
	if leader, _ := c.GlobalLeader(); leader != "region2" {
		t.Fatalf("after recovery leader = %q, want region2", leader)
	}
}

func TestPartitionElectsPerPartitionLeaders(t *testing.T) {
	net := overlay.New()
	// Two halves joined by a single bridge link.
	_ = net.AddLink("a", "b", 1)
	_ = net.AddLink("c", "d", 1)
	_ = net.AddLink("b", "c", 1) // bridge
	c, err := NewCluster(net, []Member{
		{Name: "a", Priority: 10}, {Name: "b", Priority: 1},
		{Name: "c", Priority: 2}, {Name: "d", Priority: 8},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if leader, _ := c.GlobalLeader(); leader != "a" {
		t.Fatalf("initial leader = %q, want a", leader)
	}

	results := c.ReportLinkFailure("b", "c")
	if len(results) != 2 {
		t.Fatalf("after the partition there should be two results, got %d", len(results))
	}
	if c.Leader("a") != "a" || c.Leader("b") != "a" {
		t.Fatalf("left partition should elect a")
	}
	if c.Leader("c") != "d" || c.Leader("d") != "d" {
		t.Fatalf("right partition should elect d")
	}
	if _, unique := c.GlobalLeader(); !unique {
		// Partitions have equal size (2 and 2): no unique majority leader.
		// That is the expected answer here.
	} else {
		t.Fatalf("equal-size partitions should not produce a unique global leader")
	}

	// Healing the link merges the partitions back under the highest priority.
	c.ReportLinkRecovery("b", "c")
	if leader, ok := c.GlobalLeader(); !ok || leader != "a" {
		t.Fatalf("after healing leader = %q, want a", leader)
	}
}

func TestMultipleFailuresStillYieldLeaders(t *testing.T) {
	net, c := paperCluster(t)
	// Break every direct inter-region link: traffic must go via the transit
	// node, and the cluster must still elect a single leader.
	c.ReportLinkFailure("region1", "region2")
	c.ReportLinkFailure("region2", "region3")
	results := c.ReportLinkFailure("region1", "region3")
	if len(results) != 1 {
		t.Fatalf("cluster should remain a single partition via the transit node, got %d partitions", len(results))
	}
	if leader, ok := c.GlobalLeader(); !ok || leader != "region2" {
		t.Fatalf("leader = %q, want region2", leader)
	}
	// Now take the transit node down as well: three singleton partitions.
	net.FailNode("transit-ams")
	results = c.Elect()
	if len(results) != 3 {
		t.Fatalf("with all links gone each region leads itself, got %d partitions", len(results))
	}
	for i, m := range []string{"region1", "region2", "region3"} {
		if results[i].Leader != m || c.Leader(m) != m {
			t.Fatalf("singleton partition of %s should self-lead: %+v", m, results)
		}
	}
}

func TestElectResult(t *testing.T) {
	_, c := paperCluster(t)
	results := c.Elect()
	if len(results) != 1 {
		t.Fatalf("a connected cluster should elect in one partition, got %+v", results)
	}
	if res := results[0]; res.Leader != "region2" {
		t.Fatalf("unexpected result %+v", res)
	}
}

// Property: after an arbitrary sequence of node failures, every alive member
// observes exactly one leader, that leader is alive, reachable from the
// member, and is a configured member.
func TestSingleLeaderPerPartitionProperty(t *testing.T) {
	f := func(failures []uint8) bool {
		net := overlay.PaperOverlay()
		members := []Member{
			{Name: "region1", Priority: 6},
			{Name: "region2", Priority: 12},
			{Name: "region3", Priority: 4},
		}
		c, err := NewCluster(net, members)
		if err != nil {
			return false
		}
		names := []string{"region1", "region2", "region3", "transit-ams"}
		for _, fidx := range failures {
			name := names[int(fidx)%len(names)]
			if int(fidx)%2 == 0 {
				c.ReportNodeFailure(name)
			} else {
				c.ReportNodeRecovery(name)
			}
		}
		memberSet := map[string]bool{"region1": true, "region2": true, "region3": true}
		for _, m := range []string{"region1", "region2", "region3"} {
			if !net.NodeAlive(m) {
				if c.Leader(m) != "" {
					return false
				}
				continue
			}
			leader := c.Leader(m)
			if leader == "" || !memberSet[leader] {
				return false
			}
			if !net.NodeAlive(leader) || !net.Reachable(m, leader) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkElection(b *testing.B) {
	net := overlay.PaperOverlay()
	c, err := NewCluster(net, []Member{
		{Name: "region1", Priority: 6},
		{Name: "region2", Priority: 12},
		{Name: "region3", Priority: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Elect()
	}
}
