package kernel

import (
	"fmt"
	"hash/crc32"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
)

// Kernel↔kernel message rings.
//
// Each ordered pair of nodes (A→B) shares one ring: a physical page on B
// ("inbox") that a physical page on A ("outbox") maps onto with a
// blocked-write automatic-update mapping and interrupt-on-arrival. A's
// kernel writes records into its outbox through the memory bus — the NIC
// snoops and propagates them like any other mapped store — and B's
// kernel drains its inbox when the arrival interrupt fires.
//
// Record format (all words little-endian, layout per 4 KB ring page):
//
//	+0  seq     written LAST: per-pair in-order delivery means the
//	            whole record is resident once seq matches
//	+4  len     payload byte count, or wrapMark to restart at offset 0
//	+8  crc     (fault mode only) CRC-32C of the payload
//	+8/+12 payload padded to an 8-byte boundary
//
// Producers stop writing when the unacknowledged window would overflow
// the ring; consumers return cumulative-consumed credits on their own
// reverse ring. Credit records bypass the window check (they are tiny
// and self-limiting), so the protocol cannot deadlock.
//
// In fault mode (SetRingCRC) every record additionally carries a
// payload checksum as an end-to-end integrity check on top of the
// NIC-level reliable delivery; a mismatch is unrecoverable corruption
// of the control plane and raises a machine check.

const (
	ringHeaderBytes = 8
	wrapMark        = 0xffff_ffff
	// maxRecordBytes bounds one RPC record (header + payload).
	maxRecordBytes = 512
	// creditEvery: send a credit once this many bytes have been consumed
	// since the last one.
	creditEvery = 1024
)

var ringCRCTable = crc32.MakeTable(crc32.Castagnoli)

// SetRingCRC toggles the fault-mode record checksum. The machine
// constructor sets it at boot on every node or none: both ends of a
// ring must agree on the record layout.
func (k *Kernel) SetRingCRC(on bool) { k.ringCRC = on }

// ringHeader is the per-record header size under the current layout.
func (k *Kernel) ringHeader() uint32 {
	if k.ringCRC {
		return ringHeaderBytes + 4
	}
	return ringHeaderBytes
}

// Boot ring layout. The firmware wires every ordered pair of n nodes
// with the same page layout, a pure function of the node ids: node
// self's outbox toward peer b is frame RingIndex(self, b), and its inbox
// from b is frame n-1+RingIndex(self, b). Frames from 2(n-1) up are
// free for allocation. Nothing per pair is stored; the kernel computes
// the layout from the node-id → coordinate table SetRings hands it.

// RingIndex numbers self's peers 0..n-2 in node order, skipping self.
func RingIndex(self, peer int) int {
	if peer < self {
		return peer
	}
	return peer - 1
}

// ringPeer inverts RingIndex: the peer self numbers idx.
func ringPeer(self, idx int) int {
	if idx < self {
		return idx
	}
	return idx + 1
}

// RingPages returns the number of boot ring frames on each node of an
// n-node machine: an outbox and an inbox per peer.
func RingPages(n int) int { return 2 * max(n-1, 0) }

// BootEntry is the power-on NIPT entry of page p on node self of the
// machine whose node coordinates are coords: outboxes map out
// (blocked-write, which ring records merge nicely into) to the peer's
// inbox from self, inboxes are mapped in, and both are tagged as kernel
// rings so that arrivals raise the kernel IRQ. Every other page is
// unmapped.
func BootEntry(coords []packet.Coord, self int, p phys.PageNum) nipt.Entry {
	peers := len(coords) - 1
	switch i := int(p); {
	case i < peers:
		b := ringPeer(self, i)
		return nipt.Entry{
			Lo: nipt.OutMapping{
				Mode:    nipt.BlockedWriteAU,
				Dst:     coords[b],
				DstNode: packet.NodeID(b),
				DstPage: phys.PageNum(peers + RingIndex(b, self)),
			},
			KernelRing: true,
		}
	case i < 2*peers:
		return nipt.Entry{MappedIn: true, KernelRing: true}
	}
	return nipt.Entry{}
}

// SetRings gives the kernel the machine's boot ring layout: coords maps
// every node id to its mesh coordinates, and this kernel has a ring pair
// with each node but itself. All kernels of a machine share the slice;
// none modifies it.
func (k *Kernel) SetRings(coords []packet.Coord) { k.coords = coords }

// hasRing reports whether boot wired a ring pair with node.
func (k *Kernel) hasRing(node packet.NodeID) bool {
	return node >= 0 && int(node) < len(k.coords) && node != k.id
}

// ringFrames returns the ring pair with node: the local outbox mapped
// out to node's inbox, and the local inbox node's outbox maps onto.
func (k *Kernel) ringFrames(node packet.NodeID) (out, in phys.PageNum) {
	i := RingIndex(int(k.id), int(node))
	return phys.PageNum(i), phys.PageNum(len(k.coords) - 1 + i)
}

// inboxSender returns the node whose outbox maps onto local frame f, or
// ok=false if f is not a ring inbox.
func (k *Kernel) inboxSender(f phys.PageNum) (node packet.NodeID, ok bool) {
	peers := len(k.coords) - 1
	i := int(f) - peers
	if i < 0 || i >= peers {
		return 0, false
	}
	return packet.NodeID(ringPeer(int(k.id), i)), true
}

// peer is the ring state of one pair, built from the layout the first
// time the ring is used: a send, an arrival interrupt, or a heartbeat.
// Until then the pair is at its boot state (cursors 0, sequence 1),
// which is what a fresh peer starts with, so building it late is
// unobservable — and a 1,024-node machine, whose kernels use a handful
// of their 1,023 rings, does not carry a million idle records.
type peer struct {
	node packet.NodeID

	outFrame phys.PageNum
	wcursor  uint32
	wseq     uint32
	written  uint64
	acked    uint64
	backlog  [][]byte

	inFrame    phys.PageNum
	rcursor    uint32
	rseq       uint32
	consumed   uint64
	lastCredit uint64
}

// peerOf returns the ring state for node, building it from the boot
// layout on first use. It panics if boot wired no ring to node.
func (k *Kernel) peerOf(node packet.NodeID) *peer {
	if p := k.rings[node]; p != nil {
		return p
	}
	if !k.hasRing(node) {
		panic(fmt.Sprintf("kernel%d: no ring to node %d", k.id, node))
	}
	out, in := k.ringFrames(node)
	p := &peer{node: node, outFrame: out, inFrame: in, wseq: 1, rseq: 1}
	k.rings[node] = p
	return p
}

// ringSend queues one record for the peer, respecting the credit window
// unless bypass is set (credit records only).
func (k *Kernel) ringSend(p *peer, payload []byte, bypass bool) {
	if len(payload)+int(k.ringHeader()) > maxRecordBytes {
		panic(fmt.Sprintf("kernel%d: ring record too large (%d bytes)", k.id, len(payload)))
	}
	// Records to a declared-dead peer go nowhere: its inbox stopped
	// existing when it crashed, and writing them would only re-arm the
	// reliable layer we just quarantined. Callers that need an answer
	// fast-fail before reaching here (deadRequest).
	if k.down[p.node] != nil {
		return
	}
	if !bypass && len(p.backlog) > 0 {
		p.backlog = append(p.backlog, payload)
		return
	}
	if !bypass && !k.ringFits(p, payload) {
		p.backlog = append(p.backlog, payload)
		return
	}
	k.ringWrite(p, payload)
}

// recordBytes pads records to 8-byte multiples so the write cursor is
// always 8-aligned — an 8-byte wrap record therefore always fits before
// the end of the ring page. The CRC layout's 12-byte header keeps the
// padded total a multiple of 8 too.
func (k *Kernel) recordBytes(payload []byte) uint32 {
	return (k.ringHeader() + uint32(len(payload)) + 7) &^ 7
}

// ringFits reports whether the unacked window leaves room for the record
// (including a possible wrap marker's wasted tail).
func (k *Kernel) ringFits(p *peer, payload []byte) bool {
	need := uint64(k.recordBytes(payload))
	if p.wcursor+k.recordBytes(payload) > phys.PageSize {
		need += uint64(phys.PageSize - p.wcursor) // wrap waste
	}
	return p.written-p.acked+need <= phys.PageSize-maxRecordBytes
}

// ringWrite emits the record through the memory bus, payload first and
// sequence word last, so the consumer sees only complete records.
func (k *Kernel) ringWrite(p *peer, payload []byte) {
	rec := k.recordBytes(payload)
	if p.wcursor+rec > phys.PageSize {
		// Wrap record: len=wrapMark, then seq.
		base := p.outFrame.Addr(p.wcursor)
		k.busWrite32(base+4, wrapMark)
		k.busWrite32(base, p.wseq)
		p.written += uint64(phys.PageSize - p.wcursor)
		p.wseq++
		p.wcursor = 0
	}
	base := p.outFrame.Addr(p.wcursor)
	hdr := k.ringHeader()
	if k.ringCRC {
		k.busWrite32(base+8, crc32.Checksum(payload, ringCRCTable))
	}
	for off := uint32(0); off < uint32(len(payload)); off += 4 {
		var w uint32
		for i := uint32(0); i < 4 && off+i < uint32(len(payload)); i++ {
			w |= uint32(payload[off+i]) << (8 * i)
		}
		k.busWrite32(base+phys.PAddr(hdr+off), w)
	}
	k.busWrite32(base+4, uint32(len(payload)))
	k.busWrite32(base, p.wseq)
	p.wseq++
	p.wcursor += rec
	p.written += uint64(rec)
	k.stats.RingRecordsSent++
}

// ringAck applies a cumulative credit from the peer and drains any
// backlogged records that now fit.
func (k *Kernel) ringAck(p *peer, cumulative uint64) {
	if cumulative > p.acked {
		p.acked = cumulative
	}
	for len(p.backlog) > 0 && k.ringFits(p, p.backlog[0]) {
		rec := p.backlog[0]
		p.backlog = p.backlog[1:]
		k.ringWrite(p, rec)
	}
}

// handleNICIRQ is the NIC interrupt line.
func (k *Kernel) handleNICIRQ(cause nic.IRQCause, page phys.PageNum) {
	switch cause {
	case nic.IRQKernelRing:
		node, ok := k.inboxSender(page)
		if !ok {
			panic(fmt.Sprintf("kernel%d: ring IRQ for unknown page %d", k.id, page))
		}
		k.drainRing(k.peerOf(node))
	case nic.IRQRecv:
		if k.OnUserRecvIRQ != nil {
			k.OnUserRecvIRQ(page)
		}
	}
}

func (k *Kernel) drainRing(p *peer) {
	for {
		base := p.inFrame.Addr(p.rcursor)
		seq := k.mem.Read32(base)
		if seq != p.rseq {
			break
		}
		length := k.mem.Read32(base + 4)
		if length != wrapMark && (length == 0 || length+k.ringHeader() > maxRecordBytes) {
			// The control plane cannot proceed past a mangled record:
			// raise a machine check and stop draining.
			k.eng.Fail(&fault.MachineCheck{
				Node: int(k.id), Kind: fault.CheckRingCorrupt, At: k.eng.Now(),
				Detail: fmt.Sprintf("ring from node %d: bad length %d at offset %d",
					p.node, length, p.rcursor),
			})
			return
		}
		if length == wrapMark {
			p.consumed += uint64(phys.PageSize - p.rcursor)
			p.rcursor = 0
			p.rseq++
			continue
		}
		payload := k.mem.Read(base+phys.PAddr(k.ringHeader()), int(length))
		if k.ringCRC {
			if got := crc32.Checksum(payload, ringCRCTable); got != k.mem.Read32(base+8) {
				k.eng.Fail(&fault.MachineCheck{
					Node: int(k.id), Kind: fault.CheckRingCorrupt, At: k.eng.Now(),
					Detail: fmt.Sprintf("ring from node %d: payload CRC mismatch at offset %d (seq %d)",
						p.node, p.rcursor, seq),
				})
				return
			}
		}
		rec := k.recordBytes(payload)
		p.rcursor += rec
		p.consumed += uint64(rec)
		p.rseq++
		k.stats.RingRecordsRcvd++
		k.dispatch(p, payload)
	}
	if p.consumed-p.lastCredit >= creditEvery {
		p.lastCredit = p.consumed
		k.sendCredit(p)
	}
}
