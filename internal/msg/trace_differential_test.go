package msg

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Differential tests for the superblock trace cache and spin fast-forward
// (Config.CPU.TraceCache / SpinFastForward): like batching, both are pure
// simulator optimizations, so every simulated result must be bit-identical
// to per-instruction stepping. The reference for each suite is
// batchCfg(1) — MaxBatch=1 disables batching, trace dispatch, and
// fast-forward all at once, leaving the pristine interpreter.

type traceMode struct {
	name        string
	trace, spin bool
}

var traceVariants = []traceMode{
	{"trace-off", false, false},
	{"trace-on", true, false},
	{"trace+spin", true, true},
}

// traceCfg returns the 2-node batched config with the given trace/spin
// settings.
func traceCfg(tm traceMode) core.Config {
	cfg := batchCfg(64)
	cfg.CPU.TraceCache = tm.trace
	cfg.CPU.SpinFastForward = tm.spin
	return cfg
}

// TestTraceDifferentialTable1 pins every Table 1 row across trace modes,
// with metrics layered on top of the fastest mode.
func TestTraceDifferentialTable1(t *testing.T) {
	want := MeasureTable1Cfg(batchCfg(1))
	for _, tm := range traceVariants {
		if got := MeasureTable1Cfg(traceCfg(tm)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed Table 1:\n got  %+v\n want %+v", tm.name, got, want)
		}
	}
	instr := traceCfg(traceVariants[2])
	instr.Metrics = true
	if got := MeasureTable1Cfg(instr); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace+spin with metrics on changed Table 1:\n got  %+v\n want %+v", got, want)
	}
}

// TestTraceDifferentialBaseline pins the kernel-mediated NX/2 baseline:
// traps, IRQs, kernel/user mode switches, and the kcrecv_spin receive
// wait — the §5 idiom spin fast-forward targets.
func TestTraceDifferentialBaseline(t *testing.T) {
	want := MeasureBaselineCfg(batchCfg(1))
	for _, tm := range traceVariants {
		if got := MeasureBaselineCfg(traceCfg(tm)); got != want {
			t.Fatalf("%s changed baseline:\n got  %+v\n want %+v", tm.name, got, want)
		}
	}
}

// TestTraceDifferentialConcurrentLoop compares the complete observable
// machine state of the two-CPU Figure 6 pipeline across trace modes, as
// parallel subtests so -race observes concurrent machines.
func TestTraceDifferentialConcurrentLoop(t *testing.T) {
	want := runConcurrentLoop(t, batchCfg(1))
	for _, tm := range traceVariants {
		t.Run(tm.name, func(t *testing.T) {
			t.Parallel()
			if got := runConcurrentLoop(t, traceCfg(tm)); got != want {
				t.Fatalf("%s diverged:\n got  %+v\n want %+v", tm.name, got, want)
			}
		})
	}
}

// runPingPongPair drives the concurrent ping-pong (both CPUs spinning on
// AU-mapped flags) on a prepared pair and snapshots the machine state.
func runPingPongPair(t *testing.T, p *Pair) pairRun {
	t.Helper()
	const rounds = 25
	pout, _ := p.MapBuf("FWD", 1, 1, nipt.SingleWriteAU)
	qout, err := p.PR.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	pecho, err := p.PS.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, fut := p.R.K.Map(p.PR, qout, 4096, p.S.ID, p.PS.PID, pecho, nipt.SingleWriteAU); true {
		if err := p.M.Await(fut); err != nil {
			t.Fatal(err)
		}
	}
	p.SSyms["POUT"] = int64(pout)
	p.SSyms["PECHO"] = int64(pecho)
	p.SSyms["ROUNDS"] = rounds
	p.RSyms["QIN"] = p.RSyms["FWD"]
	p.RSyms["QOUT"] = int64(qout)
	p.RSyms["ROUNDS"] = rounds
	p.Drain()

	pingProg := isa.MustAssemble("ping", pingSrc, p.SSyms)
	pongProg := isa.MustAssemble("pong", pongSrc, p.RSyms)

	p.S.K.BindProcess(p.PS)
	p.S.CPU.Load(pingProg)
	p.S.CPU.R = [8]uint32{}
	p.S.CPU.R[isa.ESP] = uint32(p.SSyms["STKTOP"])
	p.S.CPU.ResetCounters()
	if err := p.S.CPU.Start("ping"); err != nil {
		t.Fatal(err)
	}
	p.R.K.BindProcess(p.PR)
	p.R.CPU.Load(pongProg)
	p.R.CPU.R = [8]uint32{}
	p.R.CPU.R[isa.ESP] = uint32(p.RSyms["STKTOP"])
	p.R.CPU.ResetCounters()
	if err := p.R.CPU.Start("pong"); err != nil {
		t.Fatal(err)
	}
	p.M.RunUntilIdle(50_000_000)
	for _, cpu := range []*isa.CPU{p.S.CPU, p.R.CPU} {
		if !cpu.Halted() || cpu.Err() != nil {
			t.Fatalf("cpu did not finish cleanly: halted=%v err=%v eip=%d",
				cpu.Halted(), cpu.Err(), cpu.EIP())
		}
	}
	return pairRun{
		End:  p.M.Eng.Now(),
		SCPU: p.S.CPU.Counters(), RCPU: p.R.CPU.Counters(),
		SRegs: p.S.CPU.R, RRegs: p.R.CPU.R,
		SNIC: p.S.NIC.Stats(), RNIC: p.R.NIC.Stats(),
		SXbus: p.S.Xbus.Stats(), RXbus: p.R.Xbus.Stats(),
		SCache: p.S.Cache.Stats(), RCache: p.R.Cache.Stats(),
	}
}

func runPingPong(t *testing.T, cfg core.Config) pairRun {
	t.Helper()
	return runPingPongPair(t, NewPairOn(cfg, 0, 1))
}

// TestTraceDifferentialPingPong pins spin fast-forward == literal
// spinning on the workload that is almost entirely spin: both CPUs wait
// on AU-propagated flags for 25 round trips.
func TestTraceDifferentialPingPong(t *testing.T) {
	want := runPingPong(t, batchCfg(1))
	for _, tm := range traceVariants {
		t.Run(tm.name, func(t *testing.T) {
			t.Parallel()
			if got := runPingPong(t, traceCfg(tm)); got != want {
				t.Fatalf("%s diverged:\n got  %+v\n want %+v", tm.name, got, want)
			}
		})
	}
}

// TestTraceMetricsOnChangesNothing is the explicit observability
// contract: attaching the metrics registry to the fastest configuration
// (trace + spin fast-forward) changes no simulated result.
func TestTraceMetricsOnChangesNothing(t *testing.T) {
	plain := traceCfg(traceVariants[2])
	want := runPingPong(t, plain)
	metered := plain
	metered.Metrics = true
	if got := runPingPong(t, metered); got != want {
		t.Fatalf("metrics on diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestTraceRecorderOnChangesNothing extends the observability contract
// to the flight recorder and the watchdog: sampling the registry at a
// fixed cadence — and running progress checks that never trip — over the
// ISA-level ping-pong changes no simulated result.
func TestTraceRecorderOnChangesNothing(t *testing.T) {
	plain := traceCfg(traceVariants[2])
	plain.Metrics = true
	want := runPingPong(t, plain)
	armed := plain
	armed.Recorder = obs.RecorderConfig{Interval: 5 * sim.Microsecond, Capacity: 128}
	armed.Watchdog = core.WatchdogConfig{Interval: 20 * sim.Microsecond}
	if got := runPingPong(t, armed); got != want {
		t.Fatalf("recorder+watchdog armed diverged:\n got  %+v\n want %+v", got, want)
	}
}

// dmaPollRun snapshots the §4.3 status-poll workload: a command-page
// spin is uncacheable, so fast-forward must decline it and step
// literally — and still agree exactly.
type dmaPollRun struct {
	End    sim.Time
	Counts Counts
	Status uint32
	NIC    nic.Stats
}

func runDMAPoll(t *testing.T, cfg core.Config) dmaPollRun {
	t.Helper()
	p := NewPairOn(cfg, 0, 1)
	sbuf, _ := p.MapBuf("DBUF", 1, 1, nipt.DeliberateUpdate)
	p.GrantCmd(sbuf, 1)
	p.Drain()
	p.WriteSender(sbuf, make([]byte, 4096))
	p.Drain()
	src := `
poll:
	mov	edi, DBUF
	add	edi, CMDDELTA
	mov	ecx, 1024
	xor	eax, eax
	lock cmpxchg [edi], ecx
	jnz	poll
	mov	ebx, [edi]
spin:
	mov	eax, [edi]
	test	eax, eax
	jnz	spin
	hlt
`
	c := p.RunSender("dma-poll", src, "poll", nil)
	p.Drain()
	return dmaPollRun{
		End: p.M.Eng.Now(), Counts: c,
		Status: p.S.CPU.R[isa.EBX], NIC: p.S.NIC.Stats(),
	}
}

// TestTraceDifferentialDMAPoll: the command-space spin loop reads
// uncacheable DMA status, so every mode must retire the same literal
// poll sequence.
func TestTraceDifferentialDMAPoll(t *testing.T) {
	want := runDMAPoll(t, batchCfg(1))
	for _, tm := range traceVariants {
		if got := runDMAPoll(t, traceCfg(tm)); got != want {
			t.Fatalf("%s diverged:\n got  %+v\n want %+v", tm.name, got, want)
		}
	}
}

// TestTraceDifferentialFaultsArmed runs trace modes under the fault
// injector: NIC stalls perturb event timing around the ping-pong spins,
// and drop/corrupt with the reliable layer exercises retransmission in
// the kernel-ring baseline. Both must stay bit-identical per config.
func TestTraceDifferentialFaultsArmed(t *testing.T) {
	t.Run("stalls-pingpong", func(t *testing.T) {
		stall := func(tm traceMode, batch int) core.Config {
			cfg := traceCfg(tm)
			cfg.CPU.MaxBatch = batch
			cfg.Faults = fault.Config{Seed: 7, StallPPM: 100_000}
			return cfg
		}
		want := runPingPong(t, stall(traceVariants[0], 1))
		for _, tm := range traceVariants {
			if got := runPingPong(t, stall(tm, 64)); got != want {
				t.Fatalf("%s diverged under stalls:\n got  %+v\n want %+v", tm.name, got, want)
			}
		}
	})
	t.Run("drops-baseline", func(t *testing.T) {
		lossy := func(tm traceMode, batch int) core.Config {
			cfg := traceCfg(tm)
			cfg.CPU.MaxBatch = batch
			cfg.Faults = fault.Config{Seed: 11, DropPPM: 50_000, CorruptPPM: 20_000, Reliable: true}
			return cfg
		}
		want := MeasureBaselineCfg(lossy(traceVariants[0], 1))
		for _, tm := range traceVariants {
			if got := MeasureBaselineCfg(lossy(tm, 64)); got != want {
				t.Fatalf("%s diverged under drops:\n got  %+v\n want %+v", tm.name, got, want)
			}
		}
	})
}

// TestTraceDifferentialResetReuse: a machine reused via Reset must
// replay the trace+spin run bit-identically — superblocks and the spin
// watcher must not leak across Reset.
func TestTraceDifferentialResetReuse(t *testing.T) {
	cfg := traceCfg(traceVariants[2])
	fresh := runPingPong(t, cfg)
	m := core.New(cfg)
	first := runPingPongPair(t, PairOn(m, 0, 1))
	if first != fresh {
		t.Fatalf("first run on reused machine diverged:\n got  %+v\n want %+v", first, fresh)
	}
	m.Reset()
	again := runPingPongPair(t, PairOn(m, 0, 1))
	// The engine clock restarts at zero after Reset, so the runs must
	// match in full — including End.
	if again != fresh {
		t.Fatalf("run after Reset diverged:\n got  %+v\n want %+v", again, fresh)
	}
}

// TestTraceCacheHitRateFloor asserts the trace cache actually earns its
// keep on the Table 1 §5 loop workload: after the warm-up pass of the
// concurrent producer/consumer pipeline, nearly every dispatch must hit
// a built superblock.
func TestTraceCacheHitRateFloor(t *testing.T) {
	cfg := traceCfg(traceVariants[2])
	cfg.Metrics = true
	const iters = 40
	p := NewPairOn(cfg, 0, 1)
	sbuf, rbuf := p.MapBuf("BUF", 2, 2, nipt.SingleWriteAU)
	p.MapBack(sbuf, rbuf, 2, nipt.SingleWriteAU)
	for _, syms := range []map[string]int64{p.SSyms, p.RSyms} {
		syms["TOGGLE"] = 4096
		syms["FLAGOFF"] = flagOff
		syms["ITERS"] = iters
	}
	p.Drain()
	prod := isa.MustAssemble("producer", producerLoop, p.SSyms)
	cons := isa.MustAssemble("consumer", consumerLoop, p.RSyms)
	p.S.K.BindProcess(p.PS)
	p.S.CPU.Load(prod)
	p.S.CPU.R = [8]uint32{}
	p.S.CPU.R[isa.ESP] = uint32(p.SSyms["STKTOP"])
	p.S.CPU.R[isa.ESI] = uint32(sbuf)
	if err := p.S.CPU.Start("prod"); err != nil {
		t.Fatal(err)
	}
	p.R.K.BindProcess(p.PR)
	p.R.CPU.Load(cons)
	p.R.CPU.R = [8]uint32{}
	p.R.CPU.R[isa.ESP] = uint32(p.RSyms["STKTOP"])
	p.R.CPU.R[isa.EDI] = uint32(rbuf)
	if err := p.R.CPU.Start("cons"); err != nil {
		t.Fatal(err)
	}
	p.M.RunUntilIdle(100_000_000)

	snap := p.M.Obs.Snapshot()
	var hits, misses uint64
	for _, n := range snap.Nodes {
		hits += n.Counters[obs.CtrTraceHits.String()]
		misses += n.Counters[obs.CtrTraceMisses.String()]
	}
	if hits+misses == 0 {
		t.Fatal("trace cache recorded no dispatches")
	}
	rate := float64(hits) / float64(hits+misses)
	if rate < 0.9 {
		t.Fatalf("trace-cache hit rate %.3f below 0.9 floor (hits=%d misses=%d)", rate, hits, misses)
	}
	t.Logf("trace-cache hit rate %.4f (hits=%d misses=%d)", rate, hits, misses)
}

// TestRemapInvalidatesStaleTranslation is the regression test for
// cached-translation invalidation: a store warms the micro-TLB for a
// page, the page is then remapped to a different frame, and the next
// store must land in the new frame — never through the stale cached
// translation into the old one.
func TestRemapInvalidatesStaleTranslation(t *testing.T) {
	p := NewPair(nic.GenEISAPrototype)
	va, err := p.PS.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := p.PS.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Drain()
	oldPTE, ok := p.PS.AS.Lookup(va.Page())
	if !ok {
		t.Fatal("no PTE for target page")
	}
	newPTE, ok := p.PS.AS.Lookup(spare.Page())
	if !ok {
		t.Fatal("no PTE for spare page")
	}
	p.SSyms["TGT"] = int64(va)

	// Warm the cached translation with a store through the old frame.
	p.RunSender("warm", "warm:\n\tmov dword [TGT], 0x11111111\n\thlt\n", "warm", nil)
	if v, _ := p.S.Cache.Load(oldPTE.Frame.Addr(0), 4); v != 0x11111111 {
		t.Fatalf("warm store missed old frame: %#x", v)
	}

	// Remap the virtual page onto the spare page's frame. The page-table
	// generation bump must invalidate the warm TLB entry.
	p.PS.AS.Map(va.Page(), vm.PTE{Frame: newPTE.Frame, Present: true, Writable: true})
	p.RunSender("poke", "poke:\n\tmov dword [TGT], 0x22222222\n\thlt\n", "poke", nil)

	if v, _ := p.S.Cache.Load(newPTE.Frame.Addr(0), 4); v != 0x22222222 {
		t.Fatalf("store after remap missed the new frame: got %#x", v)
	}
	if v, _ := p.S.Cache.Load(oldPTE.Frame.Addr(0), 4); v != 0x11111111 {
		t.Fatalf("store after remap hit the stale frame: old frame now %#x", v)
	}
}

// TestHostPathTLBInvalidation is the harness-side counterpart: the
// host accessors (UserRead32, UserWrite32, UserReadBytes) translate
// through the same micro-TLB as the CPU, so a §4.4 protection change,
// an unmap and a remap must each reach them, and no entry may survive
// Machine.Reset. On the partitioned machine the receiver's CPU runs a
// store/load loop on a partition worker, filling the shared TLB inside
// cluster rounds while the harness fills it between them (run it under
// -race).
func TestHostPathTLBInvalidation(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			cfg := core.ConfigFor(2, 1, nic.GenEISAPrototype)
			cfg.Partitions = parts
			p := PairOn(core.New(cfg), 0, 1)
			defer p.M.Close()
			n, proc := p.R, p.PR
			buf, err := proc.AllocPages(2)
			if err != nil {
				t.Fatal(err)
			}
			spare, err := proc.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			pattern := func(seed byte) []byte {
				b := make([]byte, phys.PageSize)
				for i := range b {
					b[i] = seed + byte(i*7)
				}
				return b
			}
			for i, va := range []vm.VAddr{buf, buf + phys.PageSize, spare} {
				if err := n.UserWriteBytes(proc, va, pattern(byte(i+1))); err != nil {
					t.Fatal(err)
				}
			}

			// The CPU loop: 200 iterations of a load from the private
			// page and a store to a page mapped back to the sender. The
			// stores' packets keep the cluster's parallel windows short,
			// so the loop spans many rounds.
			sOut, rOut := p.MapBuf("OUT", 1, 1, nipt.SingleWriteAU)
			p.MapBack(sOut, rOut, 1, nipt.SingleWriteAU)
			prog := isa.MustAssembleCached("tlb-loop", `
loop:
	mov	eax, [PRIV]
	mov	dword [OUT], ecx
	dec	ecx
	jnz	loop
	hlt
`, p.RSyms)
			n.K.BindProcess(proc)
			n.CPU.Load(prog)
			n.CPU.R = [8]uint32{isa.ECX: 200, isa.ESP: uint32(p.RSyms["STKTOP"])}
			if err := n.CPU.Start("loop"); err != nil {
				t.Fatal(err)
			}
			want := append(pattern(1), pattern(2)...)
			got := make([]byte, 2*phys.PageSize)
			advance := func() {
				if p.M.Clu == nil {
					p.M.RunFor(sim.Microsecond)
					return
				}
				// Parallel rounds: the receiver's partition worker fires
				// the CPU's events.
				if err := p.M.Clu.DrainBudget(16); err != nil && !errors.Is(err, sim.ErrBudget) {
					t.Fatal(err)
				}
			}
			rounds := 0
			for ; rounds < 50 && !n.CPU.Halted(); rounds++ {
				advance()
				if err := n.UserReadBytes(proc, buf, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: host read of the buffer diverged", rounds)
				}
			}
			if rounds < 10 {
				t.Fatalf("CPU loop halted after %d harness rounds, want it running through 10", rounds)
			}

			// Protection: a read-filled entry, then a write-filled one,
			// must both stop serving writes once the page is read-only.
			for _, warmWrite := range []bool{false, true} {
				if !proc.AS.SetWritable(buf.Page(), true) {
					t.Fatal("no PTE for the buffer")
				}
				if warmWrite {
					if err := n.UserWrite32(proc, buf, 0x5a5a5a5a); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := n.UserRead32(proc, buf); err != nil {
					t.Fatal(err)
				}
				proc.AS.SetWritable(buf.Page(), false)
				// The second store follows a read that cached the
				// read-only translation: the entry's writable bit must
				// turn the store away.
				for try := 0; try < 2; try++ {
					var f *vm.Fault
					if err := n.UserWrite32(proc, buf, 1); !errors.As(err, &f) || f.Reason != vm.Protection {
						t.Fatalf("store %d to a read-only page (warmed by a write: %v) returned %v, want a protection fault", try, warmWrite, err)
					}
					if _, err := n.UserRead32(proc, buf); err != nil {
						t.Fatal(err)
					}
				}
			}
			proc.AS.SetWritable(buf.Page(), true)
			if err := n.UserWrite32(proc, buf, 0); err != nil {
				t.Fatal(err)
			}

			// Unmap, then remap onto the spare page's frame.
			if err := n.UserReadBytes(proc, buf, got); err != nil {
				t.Fatal(err)
			}
			pte, _ := proc.AS.Lookup(spare.Page())
			proc.AS.Unmap(buf.Page())
			var f *vm.Fault
			if err := n.UserReadBytes(proc, buf, got); !errors.As(err, &f) || f.Reason != vm.NotPresent {
				t.Fatalf("read of an unmapped page returned %v, want a not-present fault", err)
			}
			proc.AS.Map(buf.Page(), vm.PTE{Frame: pte.Frame, Present: true, Writable: true})
			if err := n.UserReadBytes(proc, buf, got); err != nil {
				t.Fatal(err)
			}
			if want := append(pattern(3), pattern(2)...); !bytes.Equal(got, want) {
				t.Fatal("read after remap did not see the new frame")
			}

			p.M.RunUntilIdle(10_000_000)
			if !n.CPU.Halted() || n.CPU.Err() != nil {
				t.Fatalf("CPU loop halted=%v err=%v", n.CPU.Halted(), n.CPU.Err())
			}
			if v, _ := p.S.UserRead32(p.PS, sOut); v != 1 {
				t.Fatalf("CPU loop's last store delivered %d, want 1", v)
			}
			if n.Box.TLBEntries() == 0 {
				t.Fatal("nothing filled the TLB")
			}
			p.M.Reset()
			for id, node := range p.M.Nodes {
				if k := node.Box.TLBEntries(); k != 0 {
					t.Fatalf("node %d: %d TLB entries survived Reset", id, k)
				}
			}
		})
	}
}
