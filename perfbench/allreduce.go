package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/sim"
)

// The allreduce workload: a 32×32 (1,024-node) EISA machine split across
// two partition engines, with channels along a spanning tree (columns
// reduce into row 0, row 0 into node 0). One op is one round: every
// child sends a 1 KB seeded payload up its channel, every parent
// receives, then the broadcast retraces the tree downward — 2,046 Go-API
// channels in all. Set-up is core.New plus every channel's maps.

const (
	allreduceW, allreduceH = 32, 32
	allreducePartitions    = 2
	allreducePayload       = 1024
	// allreduceRound is the simulated duration of one round. Payload
	// contents do not affect timing, so it holds for every seed and
	// every round; a speed-only change must leave it identical.
	allreduceRound = 39_045_840 * sim.Nanosecond
)

type allreduce struct {
	pool     []byte // seeded bytes the payloads are cut from
	m        *core.Machine
	up, down []*msg.Channel
	round    int
	events   uint64 // engine events of one traced round at allreducePartitions
}

func newAllreduce(seed uint64) *allreduce {
	rng := rand.New(rand.NewPCG(seed, 0x5348_5249_4d50)) // "SHRIMP"
	pool := make([]byte, 4<<20)
	for i := 0; i < len(pool); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			pool[i+j] = byte(v >> (8 * j))
		}
	}
	return &allreduce{pool: pool}
}

func (*allreduce) setUpReps() int { return 5 }

func allreduceConfig(parts int) core.Config {
	n := allreduceW * allreduceH
	cfg := core.ConfigFor(allreduceW, allreduceH, nic.GenEISAPrototype)
	// Kernel rings are all-to-all (two pages per peer), so the mesh
	// outgrows the default per-node physical page budget.
	cfg.MemPagesPerNode = max(cfg.MemPagesPerNode, 2*(n-1)+1024)
	cfg.Partitions = parts
	return cfg
}

// build boots the machine and maps every channel of the tree.
func buildAllreduce(tr *tracer, parts int) (m *core.Machine, up, down []*msg.Channel, err error) {
	tr.begin(spNew)
	m = core.New(allreduceConfig(parts))
	tr.end()
	n := allreduceW * allreduceH
	eps := make([]msg.Endpoint, n)
	for i := range eps {
		eps[i] = msg.NewEndpoint(m.Node(i))
	}
	link := func(from, to int) *msg.Channel {
		if err != nil {
			return nil
		}
		tr.begin(spMap)
		var ch *msg.Channel
		ch, err = msg.NewChannel(m, eps[from], eps[to], 2)
		tr.end()
		return ch
	}
	for i := 1; i < n; i++ {
		parent := i - allreduceW // column link toward row 0
		if i < allreduceW {
			parent = i - 1 // row-0 link toward node 0
		}
		up = append(up, link(i, parent))
		down = append(down, link(parent, i))
	}
	if err != nil {
		m.Close()
		return nil, nil, nil, err
	}
	return m, up, down, nil
}

func (a *allreduce) setUp(tr *tracer) error {
	tr.beginSetUp()
	defer tr.endSetUp()
	m, up, down, err := buildAllreduce(tr, allreducePartitions)
	if err != nil {
		return err
	}
	a.m, a.up, a.down, a.round = m, up, down, 0
	if tr != nil {
		tr.setUpCounts = snap(m)
	}
	return nil
}

func (a *allreduce) drop() {
	if a.m != nil {
		a.m.Close()
	}
	a.m, a.up, a.down = nil, nil, nil
}

// payload is the seeded message channel i sends in direction dir (0 up,
// 1 down) of round r. Offsets move every round, so a stale buffer never
// passes the check.
func (a *allreduce) payload(r, dir, i int) []byte {
	idx := uint64(dir*len(a.up) + i)
	off := (idx*1031 + uint64(r)*4099) % uint64(len(a.pool)-allreducePayload)
	return a.pool[off : off+allreducePayload]
}

func (a *allreduce) op(tr *tracer) (opOut, error) {
	var out opOut
	var s measured
	if tr != nil {
		out.counts = new(layerCounts)
		s = start(a.m)
	}
	elapsed, err := a.roundOn(tr, a.m, a.up, a.down, a.round)
	a.round++
	out.simUS = elapsed.Microseconds()
	if tr != nil {
		s.stop(out.counts)
		out.counts.msgBytes = uint64(2 * len(a.up) * allreducePayload)
		a.events = out.counts.events
	}
	return out, err
}

// roundOn runs round r on m and checks every received payload and the
// round's simulated duration.
func (a *allreduce) roundOn(tr *tracer, m *core.Machine, up, down []*msg.Channel, r int) (sim.Time, error) {
	t0 := m.Now()
	bad := 0
	for dir, chans := range [][]*msg.Channel{up, down} {
		for i, ch := range chans {
			tr.begin(spSend)
			err := ch.Send(a.payload(r, dir, i))
			tr.end()
			if err != nil {
				return 0, err
			}
		}
		for i, ch := range chans {
			tr.begin(spRecv)
			got, err := ch.Recv()
			tr.end()
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(got, a.payload(r, dir, i)) {
				bad++
			}
		}
	}
	tr.begin(spDrain)
	err := m.RunUntilIdle(4_000_000_000)
	tr.end()
	elapsed := m.Now() - t0
	switch {
	case err != nil:
		return elapsed, err
	case bad > 0:
		return elapsed, fmt.Errorf("round %d: %d of %d payloads differ from what was sent", r, bad, 2*len(up))
	case elapsed != allreduceRound:
		return elapsed, fmt.Errorf("round %d took %v simulated, want %v", r, elapsed, allreduceRound)
	}
	return elapsed, nil
}

// finish times one Reset of the partitioned machine, then replays one
// round on a sequential machine to count the events partitioning adds.
func (a *allreduce) finish(tr *tracer, lm *layerMetrics) error {
	tr.begin(spReset)
	a.m.Reset()
	tr.end()
	v := tr.perCall[spReset]
	lm.set("core.reset_ms", quantile(v, 0.5), "ms", len(v), "Reset of the partitioned machine")

	a.drop()
	runtime.GC()
	m, up, down, err := buildAllreduce(nil, 1)
	if err != nil {
		return fmt.Errorf("sequential replay set-up: %w", err)
	}
	defer m.Close()
	ev := m.Fired()
	if _, err := a.roundOn(nil, m, up, down, 0); err != nil {
		return fmt.Errorf("sequential replay: %w", err)
	}
	seq := m.Fired() - ev
	lm.set("sim.cluster_extra_events", float64(a.events)-float64(seq), "count", 1,
		fmt.Sprintf("events per round at P=%d minus P=1 (%d)", allreducePartitions, seq))
	return nil
}
