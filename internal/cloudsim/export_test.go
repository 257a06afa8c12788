package cloudsim

import (
	"sort"

	"repro/internal/simclock"
)

// PaperTestbed builds the requested paper regions, seeding each region's RNG
// deterministically from the base seed.
func PaperTestbed(seed uint64, which ...PaperRegion) []*Region {
	sort.Slice(which, func(i, j int) bool { return which[i] < which[j] })
	out := make([]*Region, 0, len(which))
	for i, w := range which {
		rng := simclock.NewRNG(seed + uint64(i)*1000003 + uint64(w))
		out = append(out, NewRegion(PaperRegionConfig(w), rng))
	}
	return out
}

// VM returns the VM with the given ID, or nil.
func (r *Region) VM(id string) *VM {
	for _, vm := range r.vms {
		if vm.ID() == id {
			return vm
		}
	}
	return nil
}

// Stream returns the VM's own random stream, which it holds by value.
func (vm *VM) Stream() *simclock.RNG { return &vm.rng }
