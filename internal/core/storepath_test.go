package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mesh"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// writeFn is a harness store path under comparison.
type writeFn func(n *Node, p *kernel.Process, va vm.VAddr, b []byte) error

// refWriteBytes is the per-word reference store path: each word waits
// out a stalled Outgoing FIFO, translates, stores through the cache and
// then runs the whole machine for its latency with Machine.RunFor.
func refWriteBytes(n *Node, p *kernel.Process, va vm.VAddr, b []byte) error {
	word := func(va vm.VAddr, v uint32, size int) error {
		for n.NIC.OutStalled() {
			if !n.m.Step() {
				break
			}
		}
		tr, f := n.Box.Translate(p.AS, va, true)
		if f != nil {
			return f
		}
		prev := n.enter()
		lat := n.Cache.Store(tr.PA, v, size, tr.WriteThrough)
		n.Eng.EnterDomain(prev)
		n.m.RunFor(lat)
		return nil
	}
	i := 0
	for ; i+4 <= len(b); i += 4 {
		v := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
		if err := word(va+vm.VAddr(i), v, 4); err != nil {
			return err
		}
	}
	for ; i < len(b); i++ {
		if err := word(va+vm.VAddr(i), uint32(b[i]), 1); err != nil {
			return err
		}
	}
	return nil
}

// write32Each stores b with one UserWrite32 per word (b's length must
// be a multiple of four): the one-word runs.
func write32Each(n *Node, p *kernel.Process, va vm.VAddr, b []byte) error {
	for i := 0; i < len(b); i += 4 {
		v := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
		if err := n.UserWrite32(p, va+vm.VAddr(i), v); err != nil {
			return err
		}
	}
	return nil
}

// nodeStats is everything one node's components count.
type nodeStats struct {
	NIC   nic.Stats
	Cache cache.Stats
	Bus   bus.XpressStats
	EISA  bus.EISAStats
	K     kernel.Stats
}

// machineState is the observable state of a machine at one instant:
// every node's stats, the mesh's, the event count, every engine's
// clock, the sender's DRAM (a checksum per page) and cache lines, and
// the metrics registry and flight recorder when they are on.
type machineState struct {
	Nodes       []nodeStats
	Mesh        mesh.Stats
	Fired       uint64
	Clocks      []sim.Time
	SenderDRAM  []uint32
	SenderLines []cache.LineState
	Obs         obs.Snapshot
	Rec         obs.Series
}

func captureState(m *Machine) machineState {
	s := machineState{Mesh: m.Net.Stats(), Fired: m.Fired(), Clocks: []sim.Time{m.Eng.Now()}}
	for _, e := range m.Parts {
		s.Clocks = append(s.Clocks, e.Now())
	}
	for _, n := range m.Nodes {
		ns := nodeStats{NIC: n.NIC.Stats(), Cache: n.Cache.Stats(), Bus: n.Xbus.Stats(), K: n.K.Stats()}
		if n.EISA != nil {
			ns.EISA = n.EISA.Stats()
		}
		s.Nodes = append(s.Nodes, ns)
	}
	sender := m.Node(0)
	page := make([]byte, phys.PageSize)
	for p := 0; p < sender.Mem.Pages(); p++ {
		sender.Mem.ReadInto(phys.PageNum(p).Addr(0), page)
		s.SenderDRAM = append(s.SenderDRAM, crc32.ChecksumIEEE(page))
	}
	s.SenderLines = sender.Cache.Lines()
	s.Obs = m.Obs.Snapshot()
	if m.Rec != nil {
		s.Rec = m.Rec.Series()
	}
	return s
}

// storeOutcome is what one store scenario leaves behind.
type storeOutcome struct {
	Err     string       // the measured write's error
	AtWrite machineState // right after the measured write returned
	Final   machineState // after draining the machine
	Recv    []byte       // the receive buffer's final contents
}

// storeCase is one scenario of the store-path differential test. Node 0
// writes the case's bytes at sendVA+off into a send buffer of sendPages
// pages, of which the first mapPages are mapped onto node 1 (blocked-
// write unless mode says otherwise); the rest are private write-back
// pages. Just before, node 2 sends bg bytes (up to 8 KB) to node 3
// through the same path, so the measured run overlaps traffic on
// another partition and the hub.
type storeCase struct {
	name      string
	cfg       func() Config
	sendPages int
	mapPages  int
	mode      nipt.Mode // of the measured mapping; 0 means BlockedWriteAU
	off       int
	n         int
	bg        int
	warm      bool // load the measured bytes into the sender's cache first
	write32   bool // store with one UserWrite32 per word
	// prep, when set, runs on the machine after the maps, before any
	// write; sendPA is the physical address of sendVA.
	prep  func(t *testing.T, m *Machine, sendPA phys.PAddr)
	check func(t *testing.T, o storeOutcome)
}

func runStoreCase(t *testing.T, c storeCase, cfg Config, write writeFn) storeOutcome {
	t.Helper()
	m := New(cfg)
	defer m.Close()
	src, dst := m.Node(0), m.Node(1)
	ps, pd := src.K.CreateProcess(), dst.K.CreateProcess()
	sendVA, err := ps.AllocPages(c.sendPages)
	if err != nil {
		t.Fatal(err)
	}
	recvVA, err := pd.AllocPages(c.mapPages)
	if err != nil {
		t.Fatal(err)
	}
	mode := c.mode
	if mode == nipt.Unmapped {
		mode = nipt.BlockedWriteAU
	}
	m.MustMap(ps, sendVA, c.mapPages*phys.PageSize, dst.ID, pd.PID, recvVA, mode)
	if c.prep != nil {
		tr, f := ps.AS.Translate(sendVA, false)
		if f != nil {
			t.Fatal(f)
		}
		c.prep(t, m, tr.PA)
	}
	bgSrc, bgDst := m.Node(2), m.Node(3)
	bs, bd := bgSrc.K.CreateProcess(), bgDst.K.CreateProcess()
	bgSend, err := bs.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	bgRecv, err := bd.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	m.MustMap(bs, bgSend, 2*phys.PageSize, bgDst.ID, bd.PID, bgRecv, nipt.BlockedWriteAU)

	bg := make([]byte, c.bg)
	for i := range bg {
		bg[i] = byte(i*7 + 1)
	}
	if err := write(bgSrc, bs, bgSend, bg); err != nil {
		t.Fatalf("background write: %v", err)
	}
	payload := make([]byte, c.n)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	if c.warm {
		if err := src.UserReadBytes(ps, sendVA+vm.VAddr(c.off), make([]byte, c.n)); err != nil {
			t.Fatalf("warm-up read: %v", err)
		}
	}
	var o storeOutcome
	if err := write(src, ps, sendVA+vm.VAddr(c.off), payload); err != nil {
		o.Err = err.Error()
	}
	o.AtWrite = captureState(m)
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		t.Fatalf("drain: %v", err)
	}
	o.Final = captureState(m)
	o.Recv = make([]byte, c.mapPages*phys.PageSize)
	if err := dst.UserReadBytes(pd, recvVA, o.Recv); err != nil {
		t.Fatalf("read back: %v", err)
	}
	return o
}

func storeCases() []storeCase {
	eisa := func() Config { return ConfigFor(2, 2, nic.GenEISAPrototype) }
	cases := []storeCase{
		{
			name: "page-boundary", cfg: eisa, sendPages: 2, mapPages: 2,
			off: phys.PageSize - 512, n: 1024,
			check: func(t *testing.T, o storeOutcome) {
				if o.Err != "" {
					t.Fatalf("write failed: %s", o.Err)
				}
				for i := 0; i < 1024; i++ {
					if got, want := o.Recv[phys.PageSize-512+i], byte(i*13+5); got != want {
						t.Fatalf("received byte %d = %#x, want %#x", i, got, want)
					}
				}
			},
		},
		{
			name: "unaligned-tail", cfg: eisa, sendPages: 1, mapPages: 1,
			off: 3, n: 1023, // 255 words, some straddling cache lines, then 3 tail bytes
		},
		{
			name: "fifo-stall",
			cfg: func() Config {
				cfg := eisa()
				cfg.NIC.OutThreshold = 128
				return cfg
			},
			sendPages: 2, mapPages: 2, n: 2 * phys.PageSize,
			check: func(t *testing.T, o storeOutcome) {
				if o.AtWrite.Nodes[0].NIC.OutStallTime == 0 {
					t.Fatal("the run never stalled on the Outgoing FIFO")
				}
			},
		},
		{
			name: "unmapped-second-page", cfg: eisa, sendPages: 1, mapPages: 1,
			off: phys.PageSize - 512, n: 1024,
			check: func(t *testing.T, o storeOutcome) {
				if o.Err == "" {
					t.Fatal("write into the unmapped page did not fault")
				}
			},
		},
		{
			name: "peer-down",
			cfg: func() Config {
				cfg := ConfigFor(2, 2, nic.GenXpress)
				cfg.Faults = fault.Config{
					Seed: 1, Reliable: true, Survivable: true,
					RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
					Heartbeat: 50 * sim.Microsecond,
					Nodes:     [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: 100 * sim.Microsecond}},
				}
				return cfg
			},
			sendPages: 16, mapPages: 16, n: 16 * phys.PageSize,
			// The teardown write-protects the pages mapped to the dead
			// peer from inside an event that fires mid-run, so a later
			// word's translation faults.
			check: func(t *testing.T, o storeOutcome) {
				if o.AtWrite.Nodes[0].K.PeerDowns != 1 {
					t.Fatalf("sender declared %d peers down during the run, want 1", o.AtWrite.Nodes[0].K.PeerDowns)
				}
				if !strings.Contains(o.Err, "protection fault") {
					t.Fatalf("write after the teardown returned %q, want a protection fault", o.Err)
				}
			},
		},
		{
			name: "one-word-runs", cfg: eisa, sendPages: 2, mapPages: 2,
			off: phys.PageSize - 256, n: 512, write32: true,
		},
		{
			// Every word hits a line the warm-up loaded, so the spans
			// write line contents and stamp LRU as well as the bus.
			name: "warm-lines", cfg: eisa, sendPages: 2, mapPages: 2,
			off: phys.PageSize - 1024, n: 2048, warm: true,
		},
		{
			// The Lo half covers the words starting below offset 1282
			// (the word at 1280 straddles the split, in the middle of
			// the packet that opened at 1024); the Hi half is shifted
			// down 1286 bytes, so its first word lands before the
			// remote page (a NIPT miss) and the rest land inside it.
			name: "split-unaligned-shifted",
			cfg: func() Config {
				cfg := eisa()
				cfg.Metrics = true // compare the NIPT lookup and miss counts
				return cfg
			},
			sendPages: 1, mapPages: 1, n: phys.PageSize,
			prep: func(t *testing.T, m *Machine, sendPA phys.PAddr) {
				table := m.Node(0).NIC.Table()
				lo := table.Entry(sendPA.Page()).Lo
				hi := lo
				hi.DstShift = -1286
				table.MapOutSplit(sendPA.Page(), 1282, lo, hi)
			},
			check: func(t *testing.T, o storeOutcome) {
				c := o.Final.Obs.Nodes[0].Counters
				if c["nipt-misses"] == 0 {
					t.Fatalf("no NIPT misses on the shifted half: %v", c)
				}
			},
		},
		{
			name: "single-write", cfg: eisa, sendPages: 1, mapPages: 1,
			mode: nipt.SingleWriteAU, off: 8, n: 1024,
		},
		{
			name: "deliberate-update", cfg: eisa, sendPages: 1, mapPages: 1,
			mode: nipt.DeliberateUpdate, off: 8, n: 1024,
		},
		{
			name: "write-back-cold", cfg: eisa, sendPages: 2, mapPages: 1,
			off: phys.PageSize + 64, n: 1024,
		},
		{
			name: "write-back-warm", cfg: eisa, sendPages: 2, mapPages: 1,
			off: phys.PageSize + 64, n: 1024, warm: true,
		},
		{
			// Once the write buffer fills, each word waits for the bus
			// longer than the merge window, so open packets expire
			// between words of the run.
			name: "merge-window-expires",
			cfg: func() Config {
				cfg := eisa()
				cfg.NIC.MergeWindow = 30 * sim.Nanosecond
				return cfg
			},
			sendPages: 2, mapPages: 2, n: 2 * phys.PageSize,
			check: func(t *testing.T, o storeOutcome) {
				s := o.AtWrite.Nodes[0]
				if s.Cache.WriteBufferStall == 0 {
					t.Fatal("the run never stalled on the write buffer")
				}
				if full := uint64(2 * phys.PageSize / nic.DefaultConfig().MaxPayload); s.NIC.MergedPackets <= full {
					t.Fatalf("%d packets: the merge window never expired mid-run", s.NIC.MergedPackets)
				}
			},
		},
		{
			name: "metrics-recorder",
			cfg: func() Config {
				cfg := eisa()
				cfg.Metrics = true
				cfg.Recorder = obs.RecorderConfig{Interval: sim.Microsecond, Capacity: 4096}
				return cfg
			},
			sendPages: 2, mapPages: 2, off: 12, n: 6000,
			check: func(t *testing.T, o storeOutcome) {
				if o.Final.Rec.Overwrote != 0 || len(o.Final.Rec.Times) == 0 {
					t.Fatalf("recorder kept %d samples and lost %d", len(o.Final.Rec.Times), o.Final.Rec.Overwrote)
				}
			},
		},
	}
	for i := range cases {
		cases[i].bg = 2 * phys.PageSize
	}
	return cases
}

// TestStorePathDifferential pins UserWriteBytes and UserWrite32 to the
// per-word reference: identical stats on every node, mesh stats, event
// counts and every engine's clock, both when the measured write returns
// and after the machine drains, sequentially and at Partitions 2.
func TestStorePathDifferential(t *testing.T) {
	for _, c := range storeCases() {
		for _, parts := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/P%d", c.name, parts), func(t *testing.T) {
				cfg := c.cfg()
				cfg.Partitions = parts
				var write writeFn = (*Node).UserWriteBytes
				if c.write32 {
					write = write32Each
				}
				got := compareStorePaths(t, c, cfg, write)
				if c.check != nil {
					c.check(t, got)
				}
			})
		}
	}
}

// compareStorePaths runs c once through write and once through the
// per-word reference and fails on any difference; it returns write's
// outcome.
func compareStorePaths(t *testing.T, c storeCase, cfg Config, write writeFn) storeOutcome {
	t.Helper()
	got := runStoreCase(t, c, cfg, write)
	want := runStoreCase(t, c, cfg, refWriteBytes)
	if got.Err != want.Err {
		t.Fatalf("error %q, reference %q", got.Err, want.Err)
	}
	if !reflect.DeepEqual(got.AtWrite, want.AtWrite) {
		t.Fatalf("state when the write returned diverged:\ngot  %+v\nwant %+v", got.AtWrite, want.AtWrite)
	}
	if !reflect.DeepEqual(got.Final, want.Final) {
		t.Fatalf("drained state diverged:\ngot  %+v\nwant %+v", got.Final, want.Final)
	}
	if !bytes.Equal(got.Recv, want.Recv) {
		t.Fatal("received bytes diverged")
	}
	return got
}

// TestStorePathRandomRuns widens the differential net with seeded
// scenarios: both generations, Outgoing FIFO thresholds from stalling
// to never, background traffic from none to 8 KB, random offsets and
// lengths, and node→partition assignments shuffled so the sender and
// receiver sometimes share a partition and sometimes do not.
func TestStorePathRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 24; i++ {
		gen := []nic.Generation{nic.GenEISAPrototype, nic.GenXpress}[rng.Intn(2)]
		threshold := []int{128, 2048, 0}[rng.Intn(3)]
		parts, seed := []int{0, 2, 4}[rng.Intn(3)], uint64(rng.Intn(4))
		c := storeCase{
			name: fmt.Sprintf("run%d", i), sendPages: 3, mapPages: 3,
			off: rng.Intn(2 * phys.PageSize), bg: rng.Intn(2*phys.PageSize + 1),
		}
		c.n = 1 + rng.Intn(3*phys.PageSize-c.off)
		t.Run(fmt.Sprintf("%s/%s/T%d/P%d.%d", c.name, gen, threshold, parts, seed), func(t *testing.T) {
			cfg := ConfigFor(2, 2, gen)
			if threshold > 0 {
				cfg.NIC.OutThreshold = threshold
			}
			if parts > 0 {
				cfg.Partitions, cfg.PartitionSeed = parts, seed
			}
			if o := compareStorePaths(t, c, cfg, (*Node).UserWriteBytes); o.Err != "" {
				t.Fatalf("write failed: %s", o.Err)
			}
		})
	}
}

// An event due exactly when a word's latency ends fires before the next
// word, as RunFor's inclusive window fires it, whether it sits on the
// node's own engine or (partitioned) on the hub. Here the event revokes
// write permission on the page being written, so the run's second word
// must fault: the horizon test is strict, and a span ends at the word
// that reaches it. On a mapped (write-through) page the first word
// merges into the packet a previous store opened, so a span stores it.
func TestStorePathEventAtWordEnd(t *testing.T) {
	for _, tc := range []struct {
		parts  int
		hub    bool
		mapped bool
	}{{0, false, false}, {2, false, false}, {2, true, false}, {0, false, true}, {2, false, true}, {2, true, true}} {
		name := fmt.Sprintf("P%d/hub=%v", tc.parts, tc.hub)
		if tc.mapped {
			name = "mapped/" + name
		}
		t.Run(name, func(t *testing.T) {
			run := func(write writeFn) (string, machineState) {
				cfg := ConfigFor(2, 2, nic.GenEISAPrototype)
				cfg.Partitions = tc.parts
				m := New(cfg)
				defer m.Close()
				n := m.Node(0)
				p := n.K.CreateProcess()
				va, err := p.AllocPages(1)
				if err != nil {
					t.Fatal(err)
				}
				if tc.mapped {
					pd := m.Node(1).K.CreateProcess()
					recvVA, err := pd.AllocPages(1)
					if err != nil {
						t.Fatal(err)
					}
					m.MustMap(p, va, phys.PageSize, 1, pd.PID, recvVA, nipt.BlockedWriteAU)
				}
				// Warm the line (a write-back page) or open a blocked-
				// write packet (a mapped one): either way the run's first
				// word costs exactly HitTime.
				if err := n.UserWrite32(p, va, 1); err != nil {
					t.Fatal(err)
				}
				at := m.Now() + cfg.Cache.HitTime
				eng, dom := n.Eng, sim.DomNode(0)
				if tc.hub {
					eng, dom = m.Eng, sim.DomHub
				}
				eng.AtDom(dom, at, func() { p.AS.SetWritable(va.Page(), false) })
				err = write(n, p, va+4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
				if err == nil {
					return "", captureState(m)
				}
				return err.Error(), captureState(m)
			}
			gotErr, got := run((*Node).UserWriteBytes)
			wantErr, want := run(refWriteBytes)
			if !strings.Contains(wantErr, "protection fault") {
				t.Fatalf("reference run returned %q, want a protection fault on the second word", wantErr)
			}
			if gotErr != wantErr || !reflect.DeepEqual(got, want) {
				t.Fatalf("got %q %+v\nreference %q %+v", gotErr, got, wantErr, want)
			}
		})
	}
}
