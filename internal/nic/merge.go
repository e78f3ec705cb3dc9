package nic

import (
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
)

// mergeState implements blocked-write automatic update (§4.1): the NIC
// buffers a snooped write instead of sending it immediately, and merges
// subsequent writes into the same packet if they are consecutive, stay
// within the same page, and occur within a programmable time limit of
// one another. Otherwise the packet is terminated and sent.
type mergeState struct {
	open *openPacket
	// spare recycles the (at most one) open packet's buffer between
	// merge runs.
	spare *openPacket
	// timerArmed tracks the single in-flight expiry event; rather than
	// scheduling one timer per write, the one timer re-arms itself at
	// open.lastWrite+MergeWindow+1ps until it finds the window expired,
	// which fires the flush at exactly the instant the per-write scheme
	// would have.
	timerArmed bool
}

type openPacket struct {
	m           *nipt.OutMapping
	srcPage     phys.PageNum
	startRemote phys.PAddr
	buf         []byte
	started     sim.Time // first merged store: the causal span's origin
	lastWrite   sim.Time
}

// merges is the §4.1 merge predicate: a size-byte write at now through
// m to remote joins the open packet o when it uses the same mapping
// half, continues o's remote range, fits in MaxPayload, and comes
// within MergeWindow of o's last write.
func (n *NIC) merges(o *openPacket, m *nipt.OutMapping, remote phys.PAddr, size int, now sim.Time) bool {
	return o.m == m &&
		o.startRemote+phys.PAddr(len(o.buf)) == remote &&
		len(o.buf)+size <= n.cfg.MaxPayload &&
		now-o.lastWrite <= n.cfg.MergeWindow
}

func (n *NIC) mergeWrite(m *nipt.OutMapping, remote phys.PAddr, data []byte, srcPage phys.PageNum) {
	o := n.merge.open
	now := n.eng.Now()
	if o != nil {
		if n.merges(o, m, remote, len(data), now) {
			o.buf = append(o.buf, data...)
			o.lastWrite = now
			n.stats.MergedWrites++
			n.scope.Inc(obs.CtrMergedWrites)
			n.armMergeTimer()
			return
		}
		n.flushMerge()
	}
	o = n.merge.spare
	if o == nil {
		o = &openPacket{}
	} else {
		n.merge.spare = nil
	}
	o.m = m
	o.srcPage = srcPage
	o.startRemote = remote
	o.buf = append(o.buf[:0], data...)
	o.started = now
	o.lastWrite = now
	n.merge.open = o
	n.armMergeTimer()
}

// mergeTimerEvent is the single §4.1 time-limit check event per NIC.
type mergeTimerEvent struct{ n *NIC }

func (ev *mergeTimerEvent) Fire() {
	n := ev.n
	n.merge.timerArmed = false
	o := n.merge.open
	if o == nil {
		return
	}
	if n.eng.Now()-o.lastWrite >= n.cfg.MergeWindow {
		n.flushMerge()
		return
	}
	// A newer write moved the deadline; chase it.
	n.merge.timerArmed = true
	n.eng.ScheduleDom(n.dom, o.lastWrite+n.cfg.MergeWindow+sim.Picosecond, &n.mergeEv)
}

// armMergeTimer schedules the §4.1 time-limit check. The in-flight timer
// re-arms itself past newer writes, so arming is a no-op while one is
// pending.
func (n *NIC) armMergeTimer() {
	if n.merge.timerArmed {
		return
	}
	n.merge.timerArmed = true
	n.eng.ScheduleAfterDom(n.dom, n.cfg.MergeWindow+sim.Picosecond, &n.mergeEv)
}

// flushMerge terminates and sends the open blocked-write packet, if any.
// The single-write and DMA paths call it first so that packets enter the
// Outgoing FIFO in store order.
func (n *NIC) flushMerge() {
	o := n.merge.open
	if o == nil {
		return
	}
	n.merge.open = nil
	n.stats.MergedPackets++
	n.scope.Inc(obs.CtrMergedPackets)
	n.emit(o.m, o.startRemote, o.buf, o.srcPage, o.started, obs.SpanBlockedWrite)
	o.m = nil
	n.merge.spare = o
}
