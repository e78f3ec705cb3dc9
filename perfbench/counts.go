package main

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// layerCounts are exact per-layer counts, read from the always-on
// Stats() / Counters() accessors of each layer (and, where Metrics is on,
// the obs registry) of the machines the benchmark builds. They are
// deterministic, so two traced runs report identical values.
type layerCounts struct {
	kernelMaps, ringRecords, peerMapsTorn uint64
	msgBytes                              uint64
	events                                uint64
	maxPending                            int
	instructions                          uint64
	traceHits, traceMisses                uint64
	loadHits, loadMisses, busTxns         uint64
	pktsOut, pktsIn                       uint64
	dmaTransfers, dmaRejected             uint64
	retransmits, acks, nacks              uint64
	worms, delivered, flitHops, parked    uint64
	meshLatency                           sim.Time
	recorderSamples                       uint64
	faultDrops, peerDowns                 uint64
}

// snap sums the counters of every layer of m. Reset zeroes them, so a
// delta taken across a measurement on one machine is that measurement's
// share.
func snap(m *core.Machine) layerCounts {
	var c layerCounts
	for _, n := range m.Nodes {
		k := n.K.Stats()
		c.kernelMaps += k.Maps
		c.ringRecords += k.RingRecordsSent
		c.peerMapsTorn += k.PeerMapsTorn
		c.instructions += n.CPU.Counters().Total()
		cs := n.Cache.Stats()
		c.loadHits += cs.LoadHits
		c.loadMisses += cs.LoadMisses
		x := n.Xbus.Stats()
		c.busTxns += x.Reads + x.Writes + x.CmdReads + x.CmdWrites
		s := n.NIC.Stats()
		c.pktsOut += s.PacketsOut
		c.pktsIn += s.PacketsIn
		c.dmaTransfers += s.DMATransfers
		c.dmaRejected += s.DMARejected
		c.retransmits += s.RelRetransmits
		c.acks += s.RelAcksSent
		c.nacks += s.RelNacksSent
		c.peerDowns += s.PeerDowns
	}
	ns := m.Net.Stats()
	c.worms = ns.Injected
	c.delivered = ns.Delivered
	c.flitHops = ns.FlitHops
	c.parked = ns.Parked
	c.meshLatency = ns.TotalLatency
	c.faultDrops = ns.FaultDropped + ns.FaultLinkDrops
	c.events = m.Fired()
	c.maxPending = m.MaxPending()
	c.recorderSamples = uint64(m.Rec.Taken())
	if m.Obs != nil {
		c.traceHits = m.Obs.Total(obs.CtrTraceHits)
		c.traceMisses = m.Obs.Total(obs.CtrTraceMisses)
	}
	return c
}

// sub returns the counts accrued between before and c. maxPending is a
// high-water mark and is kept as is.
func (c layerCounts) sub(before layerCounts) layerCounts {
	return layerCounts{
		kernelMaps:      c.kernelMaps - before.kernelMaps,
		ringRecords:     c.ringRecords - before.ringRecords,
		peerMapsTorn:    c.peerMapsTorn - before.peerMapsTorn,
		msgBytes:        c.msgBytes - before.msgBytes,
		events:          c.events - before.events,
		maxPending:      c.maxPending,
		instructions:    c.instructions - before.instructions,
		traceHits:       c.traceHits - before.traceHits,
		traceMisses:     c.traceMisses - before.traceMisses,
		loadHits:        c.loadHits - before.loadHits,
		loadMisses:      c.loadMisses - before.loadMisses,
		busTxns:         c.busTxns - before.busTxns,
		pktsOut:         c.pktsOut - before.pktsOut,
		pktsIn:          c.pktsIn - before.pktsIn,
		dmaTransfers:    c.dmaTransfers - before.dmaTransfers,
		dmaRejected:     c.dmaRejected - before.dmaRejected,
		retransmits:     c.retransmits - before.retransmits,
		acks:            c.acks - before.acks,
		nacks:           c.nacks - before.nacks,
		worms:           c.worms - before.worms,
		delivered:       c.delivered - before.delivered,
		flitHops:        c.flitHops - before.flitHops,
		parked:          c.parked - before.parked,
		meshLatency:     c.meshLatency - before.meshLatency,
		recorderSamples: c.recorderSamples - before.recorderSamples,
		faultDrops:      c.faultDrops - before.faultDrops,
		peerDowns:       c.peerDowns - before.peerDowns,
	}
}

// add accumulates o into c; maxPending takes the larger mark.
func (c *layerCounts) add(o layerCounts) {
	c.kernelMaps += o.kernelMaps
	c.ringRecords += o.ringRecords
	c.peerMapsTorn += o.peerMapsTorn
	c.msgBytes += o.msgBytes
	c.events += o.events
	c.maxPending = max(c.maxPending, o.maxPending)
	c.instructions += o.instructions
	c.traceHits += o.traceHits
	c.traceMisses += o.traceMisses
	c.loadHits += o.loadHits
	c.loadMisses += o.loadMisses
	c.busTxns += o.busTxns
	c.pktsOut += o.pktsOut
	c.pktsIn += o.pktsIn
	c.dmaTransfers += o.dmaTransfers
	c.dmaRejected += o.dmaRejected
	c.retransmits += o.retransmits
	c.acks += o.acks
	c.nacks += o.nacks
	c.worms += o.worms
	c.delivered += o.delivered
	c.flitHops += o.flitHops
	c.parked += o.parked
	c.meshLatency += o.meshLatency
	c.recorderSamples += o.recorderSamples
	c.faultDrops += o.faultDrops
	c.peerDowns += o.peerDowns
}

// measured tracks one machine across a measurement: start snapshots it,
// stop adds what accrued since into the op's counts.
type measured struct {
	m      *core.Machine
	before layerCounts
}

func start(m *core.Machine) measured { return measured{m: m, before: snap(m)} }

func (s measured) stop(into *layerCounts) { into.add(snap(s.m).sub(s.before)) }
