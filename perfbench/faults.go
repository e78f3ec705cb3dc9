package main

import (
	"fmt"
	"hash/fnv"

	shrimp "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The faults workload: Config.Metrics and the flight recorder (10 µs)
// are on. One op is one FaultSweep ladder plus one AvailabilitySweep,
// both with the shrimp-faults CLI parameters: the ladder streams 128 KB
// of 1 KB deliberate-update transfers across a 2×1 Xpress machine at
// each drop rate with reliable delivery; the availability sweep runs
// the ring workload on 4×4 with 0, 1 and 2 crashed nodes (Survivable,
// heartbeat). The seed sets the fault-injector seed.

var (
	faultLadder  = []uint32{0, 1000, 2500, 5000, 10000, 25000, 50000}
	availCrashes = []int{0, 1, 2}
)

const (
	faultTransfer = 1024
	faultTotal    = 128 * 1024
	availRounds   = 6
	availWords    = 64
	availCrashAt  = 450 * sim.Microsecond
	availStagger  = 120 * sim.Microsecond
)

type faults struct {
	seed uint64 // benchmark seed
	// want is the expected result digest: the stored one for the seed,
	// or, for a seed without one, the run's first op's (0 until then).
	want uint64
}

func newFaults(seed uint64) *faults { return &faults{seed: seed, want: faultDigests[seed]} }

// injectorSeed derives the fault-injector seed from the benchmark seed
// (splitmix64), so small benchmark seeds still spread the decision hash.
func injectorSeed(seed uint64) uint64 {
	z := seed + 0x9e37_79b9_7f4a_7c15
	z = (z ^ z>>30) * 0xbf58_476d_1ce4_e5b9
	z = (z ^ z>>27) * 0x94d0_49bb_1331_11eb
	return z ^ z>>31
}

func (f *faults) ladderConfig() core.Config {
	cfg := core.ConfigFor(2, 1, nic.GenXpress)
	cfg.Metrics = true
	cfg.Recorder = obs.RecorderConfig{Interval: 10 * sim.Microsecond}
	cfg.Faults = fault.Config{Seed: injectorSeed(f.seed), Reliable: true}
	return cfg
}

func (f *faults) availConfig() core.Config {
	cfg := core.ConfigFor(4, 4, nic.GenXpress)
	cfg.Metrics = true
	cfg.Recorder = obs.RecorderConfig{Interval: 10 * sim.Microsecond}
	cfg.Faults = fault.Config{
		Seed:        injectorSeed(f.seed),
		Reliable:    true,
		Survivable:  true,
		Heartbeat:   200 * sim.Microsecond,
		RetryBudget: 6,
		AckTimeout:  10 * sim.Microsecond,
	}
	return cfg
}

func (*faults) setUpReps() int { return 41 }

// setUp builds one machine of each configuration the op runs on (the op
// builds its own, one per point), timing construction apart from
// simulation.
func (f *faults) setUp(tr *tracer) error {
	tr.beginSetUp()
	defer tr.endSetUp()
	for _, cfg := range []core.Config{f.ladderConfig(), f.availConfig()} {
		tr.begin(spNew)
		core.New(cfg)
		tr.end()
	}
	return nil
}

func (*faults) drop() {}

func (f *faults) op(tr *tracer) (opOut, error) {
	var ladder []core.FaultPoint
	var avail []core.AvailabilityPoint
	var out opOut
	if tr == nil {
		ladder, avail = f.facade()
	} else {
		out.counts = new(layerCounts)
		var err error
		if ladder, avail, err = f.driven(tr, out.counts); err != nil {
			return out, err
		}
	}
	for _, p := range ladder {
		out.simUS += p.Elapsed.Microseconds()
	}
	for _, p := range avail {
		out.simUS += p.Elapsed.Microseconds()
	}
	return out, f.check(ladder, avail)
}

func (*faults) finish(*tracer, *layerMetrics) error { return nil }

// facade runs the op through the public sweep entry points, sequentially.
func (f *faults) facade() ([]core.FaultPoint, []core.AvailabilityPoint) {
	ladder := shrimp.FaultSweep(f.ladderConfig(), faultLadder, faultTransfer, faultTotal, 1)
	avail := shrimp.AvailabilitySweep(f.availConfig(), availCrashes, availCrashAt, availStagger,
		availRounds, availWords, 1)
	return ladder, avail
}

// driven runs the same op on machines the benchmark builds, one per
// point as the sweeps do, so their layers can be counted. The ladder
// points run faultyTransferOn, the availability points the public
// MeasureAvailabilityOn; the output check proves the results identical.
func (f *faults) driven(tr *tracer, c *layerCounts) ([]core.FaultPoint, []core.AvailabilityPoint, error) {
	var ladder []core.FaultPoint
	for _, drop := range faultLadder {
		cfg := f.ladderConfig()
		cfg.Faults.DropPPM = drop
		m := recycle(tr, nil, cfg)
		s := start(m)
		p, err := faultyTransferOn(tr, m, 0, cfg.NodeCount()-1, faultTransfer, faultTotal)
		s.stop(c)
		if err != nil {
			return nil, nil, err
		}
		ladder = append(ladder, p)
	}
	var avail []core.AvailabilityPoint
	for _, k := range availCrashes {
		cfg := f.availConfig()
		cfg.Faults.Nodes = core.CrashPlan(cfg.NodeCount(), k, availCrashAt, availStagger)
		m := recycle(tr, nil, cfg)
		s := start(m)
		tr.begin(spAvail)
		p := core.MeasureAvailabilityOn(m, availRounds, availWords)
		tr.end()
		s.stop(c)
		avail = append(avail, p)
	}
	return ladder, avail, nil
}

// faultyTransferOn is the fault-ladder point (core's
// MeasureFaultyTransfer) on a caller-provided post-boot machine. A
// machine check ends the point with Err set, as in the sweep.
func faultyTransferOn(tr *tracer, m *core.Machine, src, dst, transferBytes, totalBytes int) (core.FaultPoint, error) {
	res := core.FaultPoint{DropPPM: m.Cfg.Faults.DropPPM, TransferBytes: transferBytes}
	s, err := mapPair(tr, m, src, dst, nipt.DeliberateUpdate)
	if err != nil {
		return res, err
	}
	cmd, err := commandPage(tr, m, s)
	if err != nil {
		return res, err
	}
	words := uint32(transferBytes / 4)
	transfers := totalBytes / transferBytes
	latBefore := m.Obs.StageHist(obs.HistStageTotal)
	before := s.dst.NIC.Stats()
	netBefore := m.Net.Stats()
	t0 := m.Now()
	tr.begin(spStream)
stream:
	for i := 0; i < transfers && res.Err == ""; i++ {
		for {
			if err := m.Failed(); err != nil {
				res.Err = err.Error()
				break
			}
			if s.src.K.PeerIsDown(s.dst.ID) {
				break stream
			}
			if _, ok, _ := s.src.LockedCmpxchg(cmd, 0, words); ok {
				break
			}
			if !m.Step() {
				res.Err = "core: DMA engine never freed"
				break
			}
		}
	}
	tr.end()
	if res.Err == "" {
		if err := settle(tr, m, "faulty stream drain"); err != nil {
			res.Err = err.Error()
		}
	}
	elapsed := m.Now() - t0
	after := s.dst.NIC.Stats()
	net := m.Net.Stats()
	res.GoodBytes = after.BytesIn - before.BytesIn
	res.Elapsed = elapsed
	if elapsed > 0 {
		res.GoodputMBps = float64(res.GoodBytes) / 1e6 / elapsed.Seconds()
	}
	res.FaultDrops = net.FaultDropped + net.FaultLinkDrops - netBefore.FaultDropped - netBefore.FaultLinkDrops
	res.Corrupts = net.FaultCorrupted - netBefore.FaultCorrupted
	res.Dups = net.FaultDuplicated - netBefore.FaultDuplicated
	res.Retransmits = s.src.NIC.Stats().RelRetransmits
	res.AcksSent = after.RelAcksSent - before.RelAcksSent
	res.NacksSent = after.RelNacksSent - before.RelNacksSent
	res.DupDrops = after.RelDupDrops - before.RelDupDrops
	lat := m.Obs.StageHist(obs.HistStageTotal)
	d := lat.Delta(&latBefore)
	res.LatP50 = sim.Time(d.QuantileInterp(0.50))
	res.LatP99 = sim.Time(d.QuantileInterp(0.99))
	res.LatP999 = sim.Time(d.QuantileInterp(0.999))
	res.Events = m.Fired()
	return res, nil
}

// check is the faults workload's output check: every ladder point
// delivered its full goodput without a machine check, every
// availability point verified its survivors' words, and the results
// equal the stored digest for the seed (or, for a seed without one, the
// run's first op).
func (f *faults) check(ladder []core.FaultPoint, avail []core.AvailabilityPoint) error {
	if len(ladder) != len(faultLadder) || len(avail) != len(availCrashes) {
		return fmt.Errorf("faults op returned %d ladder and %d availability points", len(ladder), len(avail))
	}
	for _, p := range ladder {
		if p.Err != "" || p.GoodBytes != faultTotal {
			return fmt.Errorf("drop %d ppm: %d of %d bytes delivered, err %q", p.DropPPM, p.GoodBytes, faultTotal, p.Err)
		}
	}
	for _, p := range avail {
		if p.Err != "" || p.BadWords != 0 {
			return fmt.Errorf("%d crashes: %d bad words, err %q", p.Crashes, p.BadWords, p.Err)
		}
	}
	d := faultsDigest(ladder, avail)
	if f.want == 0 {
		f.want = d
	}
	if d != f.want {
		return fmt.Errorf("faults results digest %#x, want %#x", d, f.want)
	}
	return nil
}

// faultsDigest hashes every simulated result of one op (engine event
// counts excluded: a speed-only change may alter them).
func faultsDigest(ladder []core.FaultPoint, avail []core.AvailabilityPoint) uint64 {
	h := fnv.New64a()
	for _, p := range ladder {
		p.Events = 0
		fmt.Fprintf(h, "%+v|", p)
	}
	for _, p := range avail {
		p.Events = 0
		fmt.Fprintf(h, "%+v|", p)
	}
	return h.Sum64()
}

// printFaultDigests prints the faultDigests table entries for seeds
// 0..n-1, computed through the public sweep entry points, after checking
// each seed's results against everything but the table.
func printFaultDigests(n int) error {
	for seed := uint64(0); seed < uint64(n); seed++ {
		f := &faults{seed: seed}
		ladder, avail := f.facade()
		if err := f.check(ladder, avail); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Printf("\t%d: %#x,\n", seed, f.want)
	}
	return nil
}
