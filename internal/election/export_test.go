package election

// Leader returns the current leader as observed by the given member, or ""
// when the member is down or isolated from every other member (an isolated
// alive member leads its own singleton partition, so it returns itself).
func (c *Cluster) Leader(asSeenBy string) string {
	if !c.net.NodeAlive(asSeenBy) {
		return ""
	}
	return c.leaders[asSeenBy]
}
