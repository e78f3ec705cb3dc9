package kernel

import (
	"slices"

	"repro/internal/packet"
)

// RingPeers returns, ascending, the nodes whose ring state this kernel
// has built.
func (k *Kernel) RingPeers() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(k.rings))
	for node := range k.rings {
		out = append(out, node)
	}
	slices.Sort(out)
	return out
}

// BuildAllRings builds the ring state of every boot pair up front, the
// way boot did before ring state became lazy.
func (k *Kernel) BuildAllRings() {
	for i := range k.coords {
		if node := packet.NodeID(i); k.hasRing(node) {
			k.peerOf(node)
		}
	}
}
