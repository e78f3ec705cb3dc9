package main

import (
	"fmt"
	"hash/fnv"
	"math"

	shrimp "repro"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// The paper workload: one op is one sequential (workers = 1) pass of the
// §5 evaluation for both NIC generations — Table 1 (E1), the NX/2
// baseline (E4), the 15-point E2 latency sweep on 4×4 and the 7-size E3
// deliberate-update bandwidth sweep at 512 KB. It has no seeded input:
// its inputs are the paper's experiments.

var (
	paperGens = []nic.Generation{nic.GenEISAPrototype, nic.GenXpress}
	e3Sizes   = []int{64, 128, 256, 512, 1024, 2048, 4096}
)

const e3Total = 512 * 1024

// paperDigest is the FNV-1a digest of every simulated result of one
// pass (engine event counts excluded: a speed-only change may alter
// them). It is seed-independent; any change to a simulated result of
// the §5 evaluation changes it.
const paperDigest = 0x3115b915a8e922d0

// paperPass holds one pass's results, indexed by generation.
type paperPass struct {
	table1 [2][]msg.Overhead
	base   [2]msg.BaselineComparison
	lat    [2][]core.LatencyResult
	bw     [2][]core.BandwidthResult
}

type paper struct{}

func newPaper() *paper { return &paper{} }

func (*paper) setUpReps() int { return 41 }

// setUp builds one machine of each configuration the pass runs on. The
// pass builds its own machines inside the op, so this is the
// construction cost a user of the experiments pays, timed apart from
// simulation.
func (*paper) setUp(tr *tracer) error {
	tr.beginSetUp()
	defer tr.endSetUp()
	for _, g := range paperGens {
		for _, cfg := range []core.Config{core.ConfigFor(4, 4, g), core.ConfigFor(2, 1, g)} {
			tr.begin(spNew)
			core.New(cfg)
			tr.end()
		}
	}
	return nil
}

func (*paper) drop() {}

func (*paper) op(tr *tracer) (opOut, error) {
	var pass paperPass
	var out opOut
	if tr == nil {
		pass = paperFacade()
	} else {
		out.counts = new(layerCounts)
		var err error
		if pass, err = paperDriven(tr, out.counts); err != nil {
			return out, err
		}
	}
	for g := range paperGens {
		for _, r := range pass.lat[g] {
			out.simUS += r.SimEnd.Microseconds()
		}
		for _, r := range pass.bw[g] {
			out.simUS += r.SimEnd.Microseconds()
		}
	}
	return out, checkPaper(&pass)
}

func (*paper) finish(tr *tracer, lm *layerMetrics) error {
	// The E1 and E4 routines run inside msg's own harness machines,
	// which the benchmark cannot reach: their interpretation time and
	// trace-cache hits are not measurable from outside.
	lm.set("isa.instr_per_s", unmeasured, "1/s", 0, "E1/E4 CPUs are inside msg's harness machines")
	lm.set("isa.trace_hit_ratio", unmeasured, "ratio", 0, "E1/E4 CPUs are inside msg's harness machines")
	return nil
}

// paperFacade runs one pass through the public sweep entry points.
func paperFacade() paperPass {
	var p paperPass
	for g, gen := range paperGens {
		p.table1[g] = shrimp.MeasureTable1(gen)
		p.base[g] = shrimp.MeasureBaseline(gen)
		p.lat[g] = shrimp.LatencySweepParallel(shrimp.ConfigFor(4, 4, gen), 1)
		p.bw[g] = shrimp.BandwidthSweepParallel(shrimp.ConfigFor(2, 1, gen), e3Sizes, e3Total, 1)
	}
	return p
}

// paperDriven runs the same pass with E2 and E3 on machines the
// benchmark builds and recycles exactly as the workers = 1 sweeps do
// (New for the first point, Reset for the rest), so their layers can be
// counted; E1 and E4 go through the same entry points as the untraced
// pass. The op's output check proves the results identical.
func paperDriven(tr *tracer, c *layerCounts) (paperPass, error) {
	var p paperPass
	for g, gen := range paperGens {
		tr.begin(spTable1)
		p.table1[g] = msg.MeasureTable1(gen)
		tr.end()
		tr.begin(spBaseline)
		p.base[g] = msg.MeasureBaseline(gen)
		tr.end()
		c.instructions += table1Instructions(p.table1[g]) + baselineInstructions(p.base[g])

		cfg := core.ConfigFor(4, 4, gen)
		var m *core.Machine
		for dst := 1; dst < cfg.NodeCount(); dst++ {
			m = recycle(tr, m, cfg)
			s := start(m)
			tr.begin(spLatency)
			r := core.MeasureStoreLatencyOn(m, 0, dst)
			tr.end()
			s.stop(c)
			p.lat[g] = append(p.lat[g], r)
		}

		cfg = core.ConfigFor(2, 1, gen)
		m = nil
		for _, size := range e3Sizes {
			m = recycle(tr, m, cfg)
			s := start(m)
			r, err := bandwidthOn(tr, m, 0, 1, size, e3Total)
			s.stop(c)
			if err != nil {
				return p, err
			}
			p.bw[g] = append(p.bw[g], r)
		}
	}
	return p, nil
}

// recycle returns a post-boot machine for cfg: m Reset in place, or a
// new one when m is nil.
func recycle(tr *tracer, m *core.Machine, cfg core.Config) *core.Machine {
	if m == nil {
		tr.begin(spNew)
		m = core.New(cfg)
		tr.end()
		return m
	}
	tr.begin(spReset)
	m.Reset()
	tr.end()
	return m
}

// pair is one process on each of two nodes with a one-page mapping
// between them.
type pair struct {
	src, dst       *core.Node
	ps, pd         *kernel.Process
	sendVA, recvVA vm.VAddr
}

// mapPair builds a pair through the kernel's public calls, as the
// experiment harnesses in internal/core do.
func mapPair(tr *tracer, m *core.Machine, src, dst int, mode nipt.Mode) (*pair, error) {
	s := &pair{src: m.Node(src), dst: m.Node(dst)}
	tr.begin(spProc)
	s.ps = s.src.K.CreateProcess()
	s.pd = s.dst.K.CreateProcess()
	var err error
	if s.sendVA, err = s.ps.AllocPages(1); err == nil {
		s.recvVA, err = s.pd.AllocPages(1)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin(spMap)
	m.MustMap(s.ps, s.sendVA, phys.PageSize, s.dst.ID, s.pd.PID, s.recvVA, mode)
	tr.end()
	return s, settle(tr, m, "pair setup")
}

func settle(tr *tracer, m *core.Machine, phase string) error {
	tr.begin(spDrain)
	defer tr.end()
	return m.Settle(phase)
}

// commandPage grants the pair's deliberate-update command page, fills
// the send page and returns the command page's physical address.
func commandPage(tr *tracer, m *core.Machine, s *pair) (phys.PAddr, error) {
	const cmdOffset = 0x4000_0000
	tr.begin(spProc)
	err := s.src.K.GrantCommandPages(s.ps, s.sendVA, s.sendVA+cmdOffset, 1)
	tr.end()
	if err != nil {
		return 0, err
	}
	tr.begin(spFill)
	for off := 0; off < phys.PageSize && err == nil; off += 4 {
		err = s.src.UserWrite32(s.ps, s.sendVA+vm.VAddr(off), uint32(off))
	}
	tr.end()
	if err != nil {
		return 0, err
	}
	if err := settle(tr, m, "page fill"); err != nil {
		return 0, err
	}
	t, f := s.ps.AS.Translate(s.sendVA+cmdOffset, true)
	if f != nil {
		return 0, f
	}
	return t.PA, nil
}

// bandwidthOn is the E3 deliberate-update stream (core's
// MeasureDeliberateBandwidth) on a caller-provided post-boot machine.
func bandwidthOn(tr *tracer, m *core.Machine, src, dst, transferBytes, totalBytes int) (core.BandwidthResult, error) {
	var r core.BandwidthResult
	s, err := mapPair(tr, m, src, dst, nipt.DeliberateUpdate)
	if err != nil {
		return r, err
	}
	cmd, err := commandPage(tr, m, s)
	if err != nil {
		return r, err
	}
	words := uint32(transferBytes / 4)
	transfers := totalBytes / transferBytes
	startPkts := s.dst.NIC.Stats().PacketsIn
	t0 := m.Now()
	tr.begin(spStream)
	for i := 0; i < transfers && err == nil; i++ {
		for {
			if _, ok, _ := s.src.LockedCmpxchg(cmd, 0, words); ok {
				break
			}
			if !m.Step() {
				err = fmt.Errorf("DMA engine never freed")
				break
			}
		}
	}
	tr.end()
	if err != nil {
		return r, err
	}
	if err := settle(tr, m, "bandwidth stream drain"); err != nil {
		return r, err
	}
	elapsed := m.Now() - t0
	delivered := transfers * transferBytes
	return core.BandwidthResult{
		TransferBytes: transferBytes,
		TotalBytes:    delivered,
		Elapsed:       elapsed,
		Packets:       s.dst.NIC.Stats().PacketsIn - startPkts,
		MBps:          float64(delivered) / 1e6 / elapsed.Seconds(),
		Events:        m.Fired(),
		SimEnd:        m.Now(),
	}, nil
}

// table1Instructions sums the instructions the Table 1 routines retired,
// as their CPUs' isa counters report them under the paper's rules.
func table1Instructions(rows []msg.Overhead) uint64 {
	var n uint64
	for _, r := range rows {
		n += r.Total()
	}
	return n
}

func baselineInstructions(b msg.BaselineComparison) uint64 {
	return b.Shrimp.Total() + b.BaseCsend.User + b.BaseCsend.Kernel + b.BaseCrecv.User + b.BaseCrecv.Kernel
}

// checkPaper is the paper workload's output check: Table 1 exact, the
// EXPERIMENTS.md anchors of E2, E3 and E4, and the digest of every
// simulated result.
func checkPaper(p *paperPass) error {
	type bwAnchor struct {
		size int
		mbps [2]float64
	}
	bwAnchors := []bwAnchor{
		{64, [2]float64{20.4, 58.5}}, {256, [2]float64{28.6, 66.7}},
		{1024, [2]float64{30.6, 68.3}}, {4096, [2]float64{30.6, 68.3}},
	}
	worstNS := [2]float64{1941, 857} // to the nanosecond, as EXPERIMENTS.md gives them
	for g, gen := range paperGens {
		if len(p.table1[g]) != 7 {
			return fmt.Errorf("%v: Table 1 has %d rows, want 7", gen, len(p.table1[g]))
		}
		for _, r := range p.table1[g] {
			if r.Source != r.PaperSource || r.Dest != r.PaperDest {
				return fmt.Errorf("%v: Table 1 %q is %d+%d, paper %d+%d", gen, r.Name, r.Source, r.Dest, r.PaperSource, r.PaperDest)
			}
		}
		b := p.base[g]
		if s, r := b.BaseCsend.User+b.BaseCsend.Kernel, b.BaseCrecv.User+b.BaseCrecv.Kernel; s != 220 || r != 255 || b.Shrimp.Total() != 151 {
			return fmt.Errorf("%v: NX/2 baseline %d/%d vs SHRIMP %d, want 220/255 vs 151", gen, s, r, b.Shrimp.Total())
		}
		if ratio := math.Round(b.Ratio()*100) / 100; ratio != 3.15 {
			return fmt.Errorf("%v: NX/2 overhead ratio %.2f, want 3.15", gen, ratio)
		}
		if len(p.lat[g]) != 15 {
			return fmt.Errorf("%v: E2 sweep has %d points, want 15", gen, len(p.lat[g]))
		}
		if w := p.lat[g][14]; w.Hops != 6 || math.Round(w.Latency.Nanoseconds()) != worstNS[g] {
			return fmt.Errorf("%v: E2 worst-case latency %v over %d hops, want %vns over 6", gen, w.Latency, w.Hops, worstNS[g])
		}
		if len(p.bw[g]) != len(e3Sizes) {
			return fmt.Errorf("%v: E3 sweep has %d points, want %d", gen, len(p.bw[g]), len(e3Sizes))
		}
		for _, a := range bwAnchors {
			for _, r := range p.bw[g] {
				if r.TransferBytes == a.size && math.Round(r.MBps*10)/10 != a.mbps[g] {
					return fmt.Errorf("%v: E3 %d B transfers at %.2f MB/s, want %.1f", gen, a.size, r.MBps, a.mbps[g])
				}
			}
		}
	}
	if d := p.digest(); d != paperDigest {
		return fmt.Errorf("paper results digest %#x, want %#x", d, uint64(paperDigest))
	}
	return nil
}

func (p *paperPass) digest() uint64 {
	h := fnv.New64a()
	for g := range paperGens {
		fmt.Fprintf(h, "%+v|%+v|", p.table1[g], p.base[g])
		for _, r := range p.lat[g] {
			r.Events = 0
			fmt.Fprintf(h, "%+v|", r)
		}
		for _, r := range p.bw[g] {
			r.Events = 0
			fmt.Fprintf(h, "%+v|", r)
		}
	}
	return h.Sum64()
}
