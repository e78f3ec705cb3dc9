package kernel_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ringStates counts the peer ring states built across the machine.
func ringStates(m *core.Machine) int {
	n := 0
	for _, node := range m.Nodes {
		n += len(node.K.RingPeers())
	}
	return n
}

func checkInvariants(t *testing.T, m *core.Machine) {
	t.Helper()
	for _, node := range m.Nodes {
		if err := node.K.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLazyRingState pins the lazy kernel-ring contract: boot hands every
// kernel the all-to-all ring layout, computed from node ids (the NIPT
// ring entries are each table's power-on contents), but builds no ring
// state; a ring's state appears only when the ring is first used; the
// invariant checker exempts every boot ring frame of the layout, built
// or not; and building late is unobservable — a heartbeat-driven
// Survivable run, which touches every ring, matches a run on a machine
// whose rings were all built up front, and Reset returns to the fresh
// boot state.
func TestLazyRingState(t *testing.T) {
	t.Run("channel", func(t *testing.T) {
		m := core.New(core.ConfigFor(8, 8, nic.GenEISAPrototype))
		defer m.Close()
		if n := ringStates(m); n != 0 {
			t.Fatalf("fresh machine holds %d ring states, want 0", n)
		}
		checkInvariants(t, m)
		const a, b = 9, 54
		if _, err := msg.NewChannel(m, msg.NewEndpoint(m.Node(a)), msg.NewEndpoint(m.Node(b)), 2); err != nil {
			t.Fatal(err)
		}
		for id, node := range m.Nodes {
			var want []packet.NodeID
			switch id {
			case a:
				want = []packet.NodeID{b}
			case b:
				want = []packet.NodeID{a}
			}
			if got := node.K.RingPeers(); !slices.Equal(got, want) {
				t.Fatalf("node %d built rings to %v, want %v", id, got, want)
			}
		}
		checkInvariants(t, m)
		m.Reset()
		if n := ringStates(m); n != 0 {
			t.Fatalf("reset machine holds %d ring states, want 0", n)
		}
		checkInvariants(t, m)
	})

	t.Run("survivable-heartbeat", func(t *testing.T) {
		cfg := core.ConfigFor(4, 4, nic.GenXpress)
		cfg.Metrics = true
		cfg.Faults = fault.Config{
			Seed: 1729, Reliable: true, Survivable: true,
			Heartbeat:   200 * sim.Microsecond,
			RetryBudget: 6, AckTimeout: 10 * sim.Microsecond,
			Nodes: core.CrashPlan(16, 2, 450*sim.Microsecond, 120*sim.Microsecond),
		}
		// The point the machine produced when boot built all 240 ring
		// states eagerly, before ring state became lazy.
		want := core.AvailabilityPoint{
			Crashes: 2, Flows: 16, GoodFlows: 12, GoodWords: 768,
			PeerDowns: 28, MapsTorn: 4, PingsSent: 1320,
			MemSum: 0x775b80246b111d65, Elapsed: 1347187866,
			LatP50: 9471288, LatP99: 26887225, LatP999: 28223644,
			Events: 189860,
		}
		lazy := core.New(cfg)
		if got := core.MeasureAvailabilityOn(lazy, 30, 64); got != want {
			t.Fatalf("lazy rings:\n got %+v\nwant %+v", got, want)
		}
		full := 0
		for _, node := range lazy.Nodes {
			if len(node.K.RingPeers()) == len(lazy.Nodes)-1 {
				full++
			}
		}
		if full == 0 {
			t.Fatal("heartbeat built no node's full ring set")
		}

		eager := core.New(cfg)
		for _, node := range eager.Nodes {
			node.K.BuildAllRings()
		}
		if got := core.MeasureAvailabilityOn(eager, 30, 64); got != want {
			t.Fatalf("rings built up front:\n got %+v\nwant %+v", got, want)
		}

		lazy.Reset()
		if n := ringStates(lazy); n != 0 {
			t.Fatalf("reset machine holds %d ring states, want 0", n)
		}
		if got := core.MeasureAvailabilityOn(lazy, 30, 64); got != want {
			t.Fatalf("after Reset:\n got %+v\nwant %+v", got, want)
		}
	})
}
