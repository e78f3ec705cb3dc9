package core

// Reset tears the machine back down to its post-boot state in place —
// observationally equivalent to New(m.Cfg) — while reusing every large
// allocation: DRAM frames, cache lines, NIPT chunks, the mesh and its
// worm pool, the engine's event queue, the kernels' map buckets and
// free lists. Sweep harnesses that measure many points on the same
// configuration reuse one machine per worker instead of paying the full
// construction cost per point (546 allocations / 0.42 MB for a fresh
// 16-node EISA machine; Reset allocates nothing, which
// BenchmarkMachineReset pins).
//
// The engine is reset first, discarding any pending events, so Reset is
// safe even when the previous measurement stopped mid-flight (e.g. a
// latency probe that returns the instant the data lands, with deposit
// pipeline events still queued). Component resets then clear all state
// those events referenced. Boot state costs what was touched: each NIPT
// refills its built chunks in place with its power-on contents (the
// kernel ring entries), so no firmware re-walk is needed — only the
// kernels' boot steps (ring layout, free pages).
func (m *Machine) Reset() {
	if m.Clu != nil {
		m.Clu.Reset() // hub plus every partition engine, and buffered traffic
	} else {
		m.Eng.Reset()
	}
	m.Net.Reset()
	for _, n := range m.Nodes {
		n.Mem.Reset()
		n.Xbus.Reset()
		if n.EISA != nil {
			n.EISA.Reset()
		}
		n.Cache.Reset()
		n.NIC.Table().Reset()
		n.NIC.Reset()
		n.CPU.Reset()
		n.K.Reset()
	}
	m.Tracer.Reset()
	m.Obs.Reset()
	m.Rec.Reset()
	m.wd.reset()
	m.Faults.Reset()
	m.installKernelRings()
	// Re-schedule fault-plan events (node crashes, link outages): the
	// engine reset discarded them along with everything else pending, and
	// the injector's decision counters just restarted, so the reset
	// machine replays the identical fault pattern a fresh one would.
	m.applyFaults()
}
