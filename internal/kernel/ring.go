package kernel

import (
	"fmt"
	"hash/crc32"

	"repro/internal/fault"
	"repro/internal/nic"
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

// ringSlot is one roster entry: the boot-wired ring pair with a node.
type ringSlot struct {
	coord    packet.Coord
	outFrame phys.PageNum // local outbox, mapped out to the node's inbox
	inFrame  phys.PageNum // local inbox the node's outbox maps onto
	wired    bool
}

// peer is the ring state of one pair, built from the roster the first
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

// AddPeer wires up the ring pair with another node. The machine
// constructor calls it at boot after installing the NIPT entries for
// outFrame (mapped out to the peer's inbox) and inFrame (mapped in,
// kernel-ring, interrupt-on-arrival). It only records the pair in the
// roster; the ring state is built on first use.
func (k *Kernel) AddPeer(node packet.NodeID, coord packet.Coord, outFrame, inFrame phys.PageNum) {
	if n := int(node) + 1; n > len(k.roster) {
		k.roster = append(k.roster, make([]ringSlot, n-len(k.roster))...)
	}
	if k.roster[node].wired {
		panic(fmt.Sprintf("kernel%d: duplicate peer %d", k.id, node))
	}
	k.roster[node] = ringSlot{coord: coord, outFrame: outFrame, inFrame: inFrame, wired: true}
	if n := int(inFrame) + 1; n > len(k.inboxPeer) {
		k.inboxPeer = append(k.inboxPeer, make([]int32, n-len(k.inboxPeer))...)
	}
	k.inboxPeer[inFrame] = int32(node) + 1
}

// peerOf returns the ring state for node, building it from the roster
// on first use. It panics if no ring to node was wired at boot.
func (k *Kernel) peerOf(node packet.NodeID) *peer {
	if p := k.rings[node]; p != nil {
		return p
	}
	if node < 0 || int(node) >= len(k.roster) || !k.roster[node].wired {
		panic(fmt.Sprintf("kernel%d: no ring to node %d", k.id, node))
	}
	s := &k.roster[node]
	p := &peer{node: node, outFrame: s.outFrame, inFrame: s.inFrame, wseq: 1, rseq: 1}
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
		if int(page) >= len(k.inboxPeer) || k.inboxPeer[page] == 0 {
			panic(fmt.Sprintf("kernel%d: ring IRQ for unknown page %d", k.id, page))
		}
		k.drainRing(k.peerOf(packet.NodeID(k.inboxPeer[page] - 1)))
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
