package cache_test

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// machineState is everything a run leaves behind that the lazily built
// boot state could have perturbed: the scenario's own output, the
// engine's event count and clock, every node's counters, and every
// node's whole NIPT.
type machineState struct {
	Out   any
	Fired uint64
	Now   sim.Time
	Nodes []nodeState
	NIPT  [][]nipt.Entry
}

type nodeState struct {
	K     kernel.Stats
	NIC   nic.Stats
	Cache cache.Stats
	Bus   bus.XpressStats
	CPU   isa.Counters
}

func stateOf(t *testing.T, m *core.Machine, out any) machineState {
	t.Helper()
	st := machineState{Out: out, Fired: m.Fired(), Now: m.Now()}
	for _, n := range m.Nodes {
		if err := n.K.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st.Nodes = append(st.Nodes, nodeState{
			K: n.K.Stats(), NIC: n.NIC.Stats(), Cache: n.Cache.Stats(),
			Bus: n.Xbus.Stats(), CPU: n.CPU.Counters(),
		})
		tb := n.NIC.Table()
		entries := make([]nipt.Entry, tb.Pages())
		for p := range entries {
			entries[p] = tb.Peek(phys.PageNum(p))
		}
		st.NIPT = append(st.NIPT, entries)
	}
	return st
}

// buildBootState forces every lazily built piece of boot state into
// existence: every NIPT chunk (touching an entry builds its chunk) and
// every cache's lines.
func buildBootState(m *core.Machine) {
	for _, n := range m.Nodes {
		tb := n.NIC.Table()
		for p := 0; p < tb.Pages(); p++ {
			tb.Entry(phys.PageNum(p))
		}
		n.Cache.BuildLines()
	}
}

// TestLazyBoot is the differential for boot state built on first touch
// (NIPT chunks whose kernel-ring entries are their power-on contents, a
// ring layout computed from node ids, cache lines allocated on first
// fill): each scenario must leave the same output, event count, clock,
// counters, invariants and NIPT contents on a fresh machine, on a
// machine that ran it once and was Reset, and on a machine whose NIPT
// chunks and cache lines were all built before it started.
func TestLazyBoot(t *testing.T) {
	survivable := core.ConfigFor(4, 4, nic.GenXpress)
	survivable.Metrics = true
	survivable.Faults = fault.Config{
		Seed: 1729, Reliable: true, Survivable: true,
		Heartbeat:   200 * sim.Microsecond,
		RetryBudget: 6, AckTimeout: 10 * sim.Microsecond,
		Nodes: core.CrashPlan(16, 2, 450*sim.Microsecond, 120*sim.Microsecond),
	}
	churn := core.ConfigFor(2, 2, nic.GenEISAPrototype)
	churn.Kernel.Policy = kernel.InvalidateProtocol

	for _, sc := range []struct {
		name string
		cfg  core.Config
		run  func(t *testing.T, m *core.Machine) any
	}{
		{"e2-latency", core.ConfigFor(4, 4, nic.GenEISAPrototype), func(t *testing.T, m *core.Machine) any {
			return core.MeasureStoreLatencyOn(m, 0, 15)
		}},
		// The heartbeat touches every kernel ring, and so every NIPT
		// ring entry, on every node.
		{"survivable-heartbeat", survivable, func(t *testing.T, m *core.Machine) any {
			return core.MeasureAvailabilityOn(m, 30, 64)
		}},
		// Eviction zeroes NIPT entries in place (paging.go), on chunks
		// that may or may not have been built before.
		{"paging-churn", churn, runChurn},
	} {
		t.Run(sc.name, func(t *testing.T) {
			fresh := core.New(sc.cfg)
			defer fresh.Close()
			for _, n := range fresh.Nodes {
				if n.Cache.LinesBuilt() {
					t.Fatalf("fresh node %d has its cache lines built", n.ID)
				}
			}
			want := stateOf(t, fresh, sc.run(t, fresh))

			reset := core.New(sc.cfg)
			defer reset.Close()
			sc.run(t, reset)
			reset.Reset()
			requireSameState(t, "reset", stateOf(t, reset, sc.run(t, reset)), want)

			eager := core.New(sc.cfg)
			defer eager.Close()
			buildBootState(eager)
			requireSameState(t, "built up front", stateOf(t, eager, sc.run(t, eager)), want)
		})
	}
}

func requireSameState(t *testing.T, what string, got, want machineState) {
	t.Helper()
	if got.Out != want.Out {
		t.Fatalf("%s: output\n got %+v\nwant %+v", what, got.Out, want.Out)
	}
	if got.Fired != want.Fired || got.Now != want.Now {
		t.Fatalf("%s: %d events to %v, fresh machine %d to %v", what, got.Fired, got.Now, want.Fired, want.Now)
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("%s: node %d\n got %+v\nwant %+v", what, i, got.Nodes[i], want.Nodes[i])
		}
	}
	if !reflect.DeepEqual(got.NIPT, want.NIPT) {
		t.Fatalf("%s: NIPT contents differ", what)
	}
}

// runChurn drives a seeded map/traffic/evict/page-in/unmap churn across
// a 2x2 machine and returns a digest of every value delivered, plus the
// machine report.
func runChurn(t *testing.T, m *core.Machine) any {
	rng := rand.New(rand.NewSource(20261017))
	type buffer struct {
		node *core.Node
		proc *kernel.Process
		va   vm.VAddr
	}
	var bufs []buffer
	for _, n := range m.Nodes {
		p := n.K.CreateProcess()
		for j := 0; j < 3; j++ {
			va, err := p.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, buffer{n, p, va})
		}
	}
	type live struct {
		mp       *kernel.Mapping
		src, dst buffer
	}
	var maps []live
	inUse := make(map[*core.Node]map[vm.VAddr]bool)
	for _, n := range m.Nodes {
		inUse[n] = make(map[vm.VAddr]bool)
	}
	h := fnv.New64a()
	await := func(f *kernel.Future) {
		if err := m.Await(f); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 120; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			src, dst := bufs[rng.Intn(len(bufs))], bufs[rng.Intn(len(bufs))]
			if src.node == dst.node || inUse[src.node][src.va] || inUse[dst.node][dst.va] {
				continue
			}
			mode := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU}[rng.Intn(2)]
			mp, fut := src.node.K.Map(src.proc, src.va, phys.PageSize, dst.node.ID, dst.proc.PID, dst.va, mode)
			await(fut)
			inUse[src.node][src.va], inUse[dst.node][dst.va] = true, true
			maps = append(maps, live{mp, src, dst})
		case op < 8 && len(maps) > 0:
			l := maps[rng.Intn(len(maps))]
			if err := l.src.node.UserWrite32(l.src.proc, l.src.va+vm.VAddr(4*rng.Intn(8)), uint32(step)); err != nil {
				t.Fatal(err)
			}
			if err := m.RunUntilIdle(20_000_000); err != nil {
				t.Fatal(err)
			}
			v, err := l.dst.node.UserRead32(l.dst.proc, l.dst.va)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		case len(maps) > 0:
			i := rng.Intn(len(maps))
			l := maps[i]
			await(l.dst.node.K.EvictPage(l.dst.proc, l.dst.va.Page()))
			if err := l.dst.node.K.PageInForTest(l.dst.proc, l.dst.va.Page()); err != nil {
				t.Fatal(err)
			}
			await(l.src.node.K.Unmap(l.mp))
			inUse[l.src.node][l.src.va], inUse[l.dst.node][l.dst.va] = false, false
			maps = append(maps[:i], maps[i+1:]...)
		}
		if err := m.RunUntilIdle(50_000_000); err != nil {
			t.Fatal(err)
		}
	}
	var report strings.Builder
	if err := m.Report(&report); err != nil {
		t.Fatal(err)
	}
	return struct {
		Digest uint64
		Report string
	}{h.Sum64(), report.String()}
}
