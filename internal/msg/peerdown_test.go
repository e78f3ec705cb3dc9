package msg

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/sim"
)

// chanKind builds one of the two Go-API channel kinds behind a common
// face, so the peer-down tests run each scenario on both.
type chanKind struct {
	name string
	make func(m *core.Machine, snd, rcv Endpoint) (send func([]byte) error, recv func() ([]byte, error), err error)
}

var chanKinds = []chanKind{
	{"Channel", func(m *core.Machine, snd, rcv Endpoint) (func([]byte) error, func() ([]byte, error), error) {
		c, err := NewChannel(m, snd, rcv, 1)
		if err != nil {
			return nil, nil, err
		}
		return c.Send, c.Recv, nil
	}},
	{"DoubleChannel", func(m *core.Machine, snd, rcv Endpoint) (func([]byte) error, func() ([]byte, error), error) {
		c, err := NewDoubleChannel(m, snd, rcv, 1)
		if err != nil {
			return nil, nil, err
		}
		return c.Send, c.Recv, nil
	}},
}

// crashConfig is a 2×2 Xpress machine in Survivable mode whose node 1
// crashes at the given instant.
func crashConfig(at sim.Time) core.Config {
	cfg := core.ConfigFor(2, 2, nic.GenXpress)
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
		Heartbeat: 100 * sim.Microsecond,
		Nodes:     [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: at}},
	}
	return cfg
}

// A peer that crashes after set-up fails the survivor's blocked Send or
// Recv with an error wrapping fault.ErrPeerDown once the heartbeat
// declares it dead, on both channel kinds: never with a deadlock after
// the queues drain.
func TestChannelPeerDown(t *testing.T) {
	for _, k := range chanKinds {
		t.Run(k.name+"/Send", func(t *testing.T) {
			m := core.New(crashConfig(200 * sim.Microsecond))
			send, _, err := k.make(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(1)))
			if err != nil {
				t.Fatal(err)
			}
			// Nobody receives: the buffers fill, then Send waits on a
			// consumer that is dead.
			for i := 0; err == nil && i < 100; i++ {
				err = send(make([]byte, 1000))
			}
			checkPeerDown(t, m, err)
		})
		t.Run(k.name+"/Recv", func(t *testing.T) {
			m := core.New(crashConfig(200 * sim.Microsecond))
			_, recv, err := k.make(m, NewEndpoint(m.Node(1)), NewEndpoint(m.Node(0)))
			if err != nil {
				t.Fatal(err)
			}
			_, err = recv()
			checkPeerDown(t, m, err)
		})
	}
}

func checkPeerDown(t *testing.T, m *core.Machine, err error) {
	t.Helper()
	if !errors.Is(err, fault.ErrPeerDown) {
		t.Fatalf("wait on a crashed peer returned %v, want fault.ErrPeerDown", err)
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("error %q does not name the crashed node", err)
	}
	if !m.Node(0).K.PeerIsDown(1) {
		t.Fatal("returned before the survivor declared the peer down")
	}
	if m.Now() <= 200*sim.Microsecond {
		t.Fatalf("returned at %v, before the crash", m.Now())
	}
}

// An endpoint that crashes while the channel is being set up fails the
// constructor with an error wrapping fault.ErrPeerDown that names it,
// instead of panicking when the machine runs out of events before the
// map resolves. Each crash lands during a map the crashed node itself
// issues (Channel's third, DoubleChannel's second), with and without
// Survivable.
func TestChannelSetUpPeerDown(t *testing.T) {
	crashAt := map[string]sim.Time{"Channel": 50 * sim.Microsecond, "DoubleChannel": 30 * sim.Microsecond}
	for _, k := range chanKinds {
		for _, survivable := range []bool{false, true} {
			name := k.name + "/failstop"
			if survivable {
				name = k.name + "/survivable"
			}
			t.Run(name, func(t *testing.T) {
				cfg := crashConfig(crashAt[k.name])
				if !survivable {
					cfg.Faults.Survivable, cfg.Faults.Heartbeat = false, 0
				}
				m := core.New(cfg)
				_, _, err := k.make(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(1)))
				if !errors.Is(err, fault.ErrPeerDown) || !strings.Contains(err.Error(), "node 1") {
					t.Fatalf("set-up returned %v, want fault.ErrPeerDown naming node 1", err)
				}
			})
		}
	}
}
