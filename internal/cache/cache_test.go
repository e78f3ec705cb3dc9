package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/phys"
	"repro/internal/sim"
)

func newCache() (*sim.Engine, *bus.Xpress, *Cache) {
	eng := sim.NewEngine()
	mem := phys.NewMemory(16)
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	c := New(eng, DefaultConfig(), x)
	return eng, x, c
}

func TestLoadMissThenHit(t *testing.T) {
	_, x, c := newCache()
	x.Memory().Write32(256, 0x12345678)
	v, missLat := c.Load(256, 4)
	if v != 0x12345678 {
		t.Fatalf("miss value %#x", v)
	}
	v, hitLat := c.Load(256, 4)
	if v != 0x12345678 {
		t.Fatalf("hit value %#x", v)
	}
	if hitLat >= missLat {
		t.Fatalf("hit %v not faster than miss %v", hitLat, missLat)
	}
	st := c.Stats()
	if st.LoadMisses != 1 || st.LoadHits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSubWordAccess(t *testing.T) {
	_, x, c := newCache()
	x.Memory().Write32(64, 0xddccbbaa)
	if v, _ := c.Load(64, 1); v != 0xaa {
		t.Fatalf("byte load %#x", v)
	}
	if v, _ := c.Load(65, 1); v != 0xbb {
		t.Fatalf("byte load +1 %#x", v)
	}
	if v, _ := c.Load(64, 2); v != 0xbbaa {
		t.Fatalf("half load %#x", v)
	}
	c.Store(65, 0x7e, 1, true)
	if v, _ := c.Load(64, 4); v != 0xddcc7eaa {
		t.Fatalf("after byte store %#x", v)
	}
	if x.Memory().Read32(64) != 0xddcc7eaa {
		t.Fatal("write-through byte store missed memory")
	}
}

func TestWriteThroughGoesToBus(t *testing.T) {
	_, x, c := newCache()
	before := x.Stats().Writes
	c.Store(512, 77, 4, true)
	if x.Stats().Writes != before+1 {
		t.Fatal("write-through store did not reach the bus")
	}
	if x.Memory().Read32(512) != 77 {
		t.Fatal("memory not updated")
	}
}

func TestWriteBackDefersBusWrite(t *testing.T) {
	_, x, c := newCache()
	before := x.Stats().Writes
	c.Store(512, 77, 4, false)
	if x.Stats().Writes != before {
		t.Fatal("write-back store went to the bus immediately")
	}
	if v, _ := c.Load(512, 4); v != 77 {
		t.Fatal("write-back store lost")
	}
	// Memory is stale until eviction or flush.
	if x.Memory().Read32(512) == 77 {
		t.Fatal("memory updated before write-back")
	}
	c.Flush()
	if x.Memory().Read32(512) != 77 {
		t.Fatal("flush did not write back")
	}
	if c.Stats().WriteBacks == 0 {
		t.Fatal("write-back not counted")
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	eng := sim.NewEngine()
	mem := phys.NewMemory(64)
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	cfg := DefaultConfig()
	cfg.Sets = 2 // tiny cache to force conflicts
	cfg.Ways = 1
	c := New(eng, cfg, x)

	c.Store(0, 11, 4, false) // dirty line in set 0
	// Same set, different tag: line size 32, sets 2 -> stride 64.
	c.Store(64, 22, 4, false) // evicts the first line
	if mem.Read32(0) != 11 {
		t.Fatal("dirty victim not written back")
	}
	if v, _ := c.Load(64, 4); v != 22 {
		t.Fatal("new line lost")
	}
}

func TestDMASnoopInvalidates(t *testing.T) {
	_, x, c := newCache()
	x.Memory().Write32(128, 1)
	c.Load(128, 4) // line cached
	// DMA deposit (bridge-initiated) to the same line.
	x.Write32(bus.InitBridge, 128, 99)
	if c.Stats().SnoopInvalidations == 0 {
		t.Fatal("no invalidation on DMA write")
	}
	if v, _ := c.Load(128, 4); v != 99 {
		t.Fatalf("stale value %d after DMA", v)
	}
}

func TestCPUWritesDoNotSelfInvalidate(t *testing.T) {
	_, x, c := newCache()
	c.Store(128, 5, 4, true)
	c.Load(128, 4)
	x.Write32(bus.InitCPU, 132, 6) // some other CPU-side bus write
	if c.Stats().SnoopInvalidations != 0 {
		t.Fatal("CPU write invalidated own cache")
	}
}

func TestFlushPage(t *testing.T) {
	_, x, c := newCache()
	c.Store(phys.PageNum(2).Addr(0), 1, 4, false)
	c.Store(phys.PageNum(2).Addr(64), 2, 4, false)
	c.Store(phys.PageNum(3).Addr(0), 3, 4, false)
	c.FlushPage(2)
	if x.Memory().Read32(phys.PageNum(2).Addr(0)) != 1 ||
		x.Memory().Read32(phys.PageNum(2).Addr(64)) != 2 {
		t.Fatal("page 2 not written back")
	}
	if x.Memory().Read32(phys.PageNum(3).Addr(0)) == 3 {
		t.Fatal("FlushPage touched another page")
	}
	// Page 2 lines are invalid now: a DMA write then load sees new data.
	x.Write32(bus.InitBridge, phys.PageNum(2).Addr(0), 42)
	if v, _ := c.Load(phys.PageNum(2).Addr(0), 4); v != 42 {
		t.Fatal("stale line survived FlushPage")
	}
}

func TestCommandSpaceUncacheable(t *testing.T) {
	_, x, c := newCache()
	cmd := &countingCmd{}
	x.SetCommandTarget(cmd)
	base := x.Memory().CmdBase()
	c.Load(base+4, 4)
	c.Load(base+4, 4)
	if cmd.reads != 2 {
		t.Fatalf("command reads cached: %d bus reads", cmd.reads)
	}
	c.Store(base+4, 1, 4, true)
	if cmd.writes != 1 {
		t.Fatal("command store not a bus write")
	}
}

type countingCmd struct{ reads, writes int }

func (c *countingCmd) CmdRead(a phys.PAddr) uint32          { c.reads++; return 0 }
func (c *countingCmd) CmdWrite(a phys.PAddr, v uint32) bool { c.writes++; return true }

func TestWriteBufferStallsWhenBusSaturated(t *testing.T) {
	_, _, c := newCache()
	var sawStall bool
	for i := 0; i < 100; i++ {
		lat := c.Store(phys.PAddr(i*4), uint32(i), 4, true)
		if lat > DefaultConfig().HitTime {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("no write-buffer stall under back-to-back stores")
	}
	if c.Stats().WriteBufferStall == 0 {
		t.Fatal("stall time not accounted")
	}
}

func TestCoherenceUnderRandomInterleaving(t *testing.T) {
	// Property: a load through the cache always returns the most recent
	// write, regardless of CPU store policy and interleaved DMA writes.
	eng := sim.NewEngine()
	mem := phys.NewMemory(8)
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	c := New(eng, DefaultConfig(), x)
	rng := rand.New(rand.NewSource(3))
	shadow := make(map[phys.PAddr]uint32)

	for i := 0; i < 5000; i++ {
		a := phys.PAddr(rng.Intn(8*phys.PageSize/4)) * 4
		switch rng.Intn(4) {
		case 0: // write-through store
			v := rng.Uint32()
			c.Store(a, v, 4, true)
			shadow[a] = v
		case 1: // write-back store
			v := rng.Uint32()
			c.Store(a, v, 4, false)
			shadow[a] = v
		case 2: // DMA write (must invalidate)
			v := rng.Uint32()
			x.Write32(bus.InitBridge, a, v)
			shadow[a] = v
		case 3: // load and check
			want, ok := shadow[a]
			if !ok {
				continue
			}
			if got, _ := c.Load(a, 4); got != want {
				t.Fatalf("step %d: load %#x = %#x, want %#x", i, uint32(a), got, want)
			}
		}
	}
	// Final sweep: every address readable and correct.
	for a, want := range shadow {
		if got, _ := c.Load(a, 4); got != want {
			t.Fatalf("final: %#x = %#x, want %#x", uint32(a), got, want)
		}
	}
}

// busLog records every bus write a snooper sees, in order: for CPU
// writes out of a write-back cache that is the write-back order.
type busLog struct{ writes []phys.PAddr }

func (b *busLog) SnoopWrite(_ bus.Initiator, a phys.PAddr, _ []byte) {
	b.writes = append(b.writes, a)
}

type twin struct {
	eng *sim.Engine
	x   *bus.Xpress
	c   *Cache
	cmd *countingCmd
	log *busLog
}

func newTwin() twin {
	eng, x, c := newCache()
	t := twin{eng: eng, x: x, c: c, cmd: &countingCmd{}, log: &busLog{}}
	x.SetCommandTarget(t.cmd)
	x.AddSnooper(t.log)
	return t
}

// requireSameCache compares everything a one-byte-load sequence and a
// LoadBytes run may have touched: statistics, spin-probe counters, bus
// activity, command reads, the bus write log, and every line's tag,
// state, data and LRU stamp together with the LRU clock.
func requireSameCache(t *testing.T, what string, a, b twin) {
	t.Helper()
	if a.c.Stats() != b.c.Stats() {
		t.Fatalf("%s: stats %+v, byte loads %+v", what, a.c.Stats(), b.c.Stats())
	}
	pa, aa := a.c.SpinProbe()
	pb, ab := b.c.SpinProbe()
	if pa != pb || aa != ab {
		t.Fatalf("%s: spin probe (%d,%d), byte loads (%d,%d)", what, pa, aa, pb, ab)
	}
	if a.x.Stats() != b.x.Stats() || a.x.BusyUntil() != b.x.BusyUntil() {
		t.Fatalf("%s: bus %+v busy %v, byte loads %+v busy %v",
			what, a.x.Stats(), a.x.BusyUntil(), b.x.Stats(), b.x.BusyUntil())
	}
	if a.cmd.reads != b.cmd.reads {
		t.Fatalf("%s: %d command reads, byte loads %d", what, a.cmd.reads, b.cmd.reads)
	}
	if !slices.Equal(a.log.writes, b.log.writes) {
		t.Fatalf("%s: bus writes %#x, byte loads %#x", what, a.log.writes, b.log.writes)
	}
	if a.c.clock != b.c.clock {
		t.Fatalf("%s: LRU clock %d, byte loads %d", what, a.c.clock, b.c.clock)
	}
	for s := range a.c.sets {
		for w := range a.c.sets[s] {
			la, lb := &a.c.sets[s][w], &b.c.sets[s][w]
			if la.valid != lb.valid || la.dirty != lb.dirty || la.tag != lb.tag ||
				la.lru != lb.lru || !bytes.Equal(la.data, lb.data) {
				t.Fatalf("%s: set %d way %d = %+v, byte loads %+v", what, s, w, *la, *lb)
			}
		}
	}
}

// TestLoadBytesMatchesByteLoads is the differential for the host read
// path: LoadBytes(a, out) on one cache and len(out) ascending Load(a+i,
// 1) calls on its twin must leave the two indistinguishable — same
// bytes, statistics, spin-probe and bus counters, LRU stamps — and so
// must pick the same victim and write back the same lines on a later
// conflicting access.
func TestLoadBytesMatchesByteLoads(t *testing.T) {
	const way = 256 * 32 // bytes per way: same set, next tag
	cases := []struct {
		name  string
		setup func(c *Cache, m *phys.Memory)
		a     phys.PAddr
		n     int
	}{
		{name: "mid-line", a: 0x105, n: 19},
		{name: "one-byte", a: 0x11f, n: 1},
		{name: "cross-lines", a: 0x213, n: 150},
		{name: "full-page", a: 0x1000, n: phys.PageSize},
		{name: "warm-hits", a: 0x308, n: 70, setup: func(c *Cache, _ *phys.Memory) {
			c.Load(0x300, 4)
			c.Load(0x340, 4)
		}},
		{name: "dirty-victim", a: 0x400 + 2*way + 7, n: 60, setup: func(c *Cache, _ *phys.Memory) {
			// Both ways of the target sets hold dirty lines; the older
			// one must be written back when the run misses.
			c.Store(0x400, 1, 4, false)
			c.Store(0x420, 2, 4, false)
			c.Store(0x400+way, 3, 4, false)
			c.Store(0x420+way, 4, 4, false)
			c.Store(0x440+way, 5, 4, false)
			c.Load(0x400, 4)
		}},
		{name: "command-space", a: phys.PAddr(16*phys.PageSize) + 4, n: 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newTwin(), newTwin()
			for _, tw := range []twin{a, b} {
				for p := 0; p < 8; p++ {
					for i := 0; i < phys.PageSize; i += 4 {
						tw.x.Memory().Write32(phys.PageNum(p).Addr(uint32(i)), uint32(p<<16|i))
					}
				}
				if tc.setup != nil {
					tc.setup(tw.c, tw.x.Memory())
				}
			}
			requireSameCache(t, "after setup", a, b)
			before := a.c.Stats()
			got := make([]byte, tc.n)
			a.c.LoadBytes(tc.a, got)
			// The named cases must exercise what they are named for.
			switch after := a.c.Stats(); tc.name {
			case "dirty-victim":
				if after.WriteBacks == before.WriteBacks {
					t.Fatal("run evicted no dirty line")
				}
			case "command-space":
				if a.cmd.reads != tc.n {
					t.Fatalf("%d command reads for %d bytes", a.cmd.reads, tc.n)
				}
			}
			want := make([]byte, tc.n)
			for i := range want {
				v, _ := b.c.Load(tc.a+phys.PAddr(i), 1)
				want[i] = byte(v)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("LoadBytes read %x, byte loads %x", got, want)
			}
			requireSameCache(t, "after the run", a, b)
			// A later access to every set the run touched, under a new
			// tag, must evict the same way and write back the same lines.
			for _, tw := range []twin{a, b} {
				for off := 0; off < tc.n; off += 32 {
					tw.c.Load(tc.a+phys.PAddr(off)+3*way, 1)
					tw.c.Store(tc.a+phys.PAddr(off)+5*way, 9, 1, false)
				}
			}
			requireSameCache(t, "after conflicting accesses", a, b)
		})
	}
}

// TestLoadBytesRandomRuns replays one random access sequence on twin
// caches, with every read done as a LoadBytes run on one and as byte
// loads on the other, interleaved with write-back and write-through
// stores and DMA writes.
func TestLoadBytesRandomRuns(t *testing.T) {
	a, b := newTwin(), newTwin()
	rng := rand.New(rand.NewSource(11))
	const span = 8 * phys.PageSize
	for i := 0; i < 3000; i++ {
		addr := phys.PAddr(rng.Intn(span))
		switch rng.Intn(4) {
		case 0:
			v, wt := rng.Uint32(), rng.Intn(2) == 0
			addr &^= 3
			a.c.Store(addr, v, 4, wt)
			b.c.Store(addr, v, 4, wt)
		case 1:
			v := rng.Uint32()
			addr &^= 3
			a.x.Write32(bus.InitBridge, addr, v)
			b.x.Write32(bus.InitBridge, addr, v)
		default:
			n := 1 + rng.Intn(200)
			if int(addr)+n > span {
				n = span - int(addr)
			}
			got, want := make([]byte, n), make([]byte, n)
			a.c.LoadBytes(addr, got)
			for j := range want {
				v, _ := b.c.Load(addr+phys.PAddr(j), 1)
				want[j] = byte(v)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: LoadBytes(%#x) read %x, byte loads %x", i, uint32(addr), got, want)
			}
		}
	}
	requireSameCache(t, "after random runs", a, b)
}

// lineBase inverts decompose for every geometry the tag shift covers: a
// direct-mapped single set, two sets and the default 256, at addresses
// spread across the whole 32-bit space.
func TestLineBaseRoundTrip(t *testing.T) {
	for _, sets := range []int{1, 2, DefaultConfig().Sets} {
		cfg := DefaultConfig()
		cfg.Sets = sets
		eng := sim.NewEngine()
		c := New(eng, cfg, bus.NewXpress(eng, bus.DefaultXpressConfig(), phys.NewMemory(1)))
		rng := rand.New(rand.NewSource(int64(sets)))
		for i := 0; i < 10_000; i++ {
			a := phys.PAddr(rng.Uint32())
			if i < 3 {
				a = []phys.PAddr{0, 0xffffffff, phys.PAddr(cfg.LineBytes * sets)}[i]
			}
			set, tag, off := c.decompose(a)
			if base := c.lineBase(set, tag); base+phys.PAddr(off) != a || uint32(base)&c.lineMask != 0 {
				t.Fatalf("sets=%d: %#x decomposes to (set %d, tag %#x, off %d), lineBase %#x", sets, uint32(a), set, tag, off, uint32(base))
			}
		}
	}
}

// TestLazyLines pins the first-fill contract: a cache that has never
// filled a line misses every lookup, finds nothing to invalidate, flush
// or write back, and reports exactly the statistics, bus traffic and
// values of one whose lines were all built (empty) up front. Only a
// fill builds the lines; write-through store misses, snoops, locked
// RMWs and flushes do not, and Reset keeps them.
func TestLazyLines(t *testing.T) {
	lazy, built := newTwin(), newTwin()
	built.c.BuildLines()
	if lazy.c.LinesBuilt() {
		t.Fatal("fresh cache has its lines built")
	}
	page := phys.PageNum(3)
	ops := []func(tw twin) uint32{
		func(tw twin) uint32 { tw.x.Write32(bus.InitBridge, page.Addr(64), 7); return 0 }, // DMA snoop
		func(tw twin) uint32 { tw.c.FlushPage(page); tw.c.Flush(); return 0 },
		func(tw twin) uint32 { return uint32(tw.c.Store(page.Addr(96), 5, 4, true)) }, // write-through miss
		func(tw twin) uint32 {
			v, _, _ := tw.c.LockedCmpxchg(page.Addr(64), 7, 8)
			return v
		},
		func(tw twin) uint32 { v, _ := tw.c.Load(page.Addr(64), 4); return v }, // first fill
		func(tw twin) uint32 { tw.x.Write32(bus.InitBridge, page.Addr(64), 9); return 0 },
		func(tw twin) uint32 { v, _ := tw.c.Load(page.Addr(64), 4); return v },
		func(tw twin) uint32 { return uint32(tw.c.Store(page.Addr(128), 6, 4, false)) }, // write-allocate
		func(tw twin) uint32 { tw.c.FlushPage(page); return 0 },
	}
	for i, op := range ops {
		if a, b := op(lazy), op(built); a != b {
			t.Fatalf("op %d: lazy returned %#x, built %#x", i, a, b)
		}
		if i == 3 {
			if lazy.c.LinesBuilt() {
				t.Fatal("snoops, flushes, a locked RMW and a write-through miss built the lines")
			}
			requireSameTraffic(t, "before the first fill", lazy, built)
		}
	}
	if !lazy.c.LinesBuilt() {
		t.Fatal("a fill did not build the lines")
	}
	requireSameTraffic(t, "after fills", lazy, built)
	lazy.c.Reset()
	if !lazy.c.LinesBuilt() {
		t.Fatal("Reset dropped the built lines")
	}
}

// requireSameTraffic compares what the two caches showed the outside:
// statistics, spin-probe counters, bus activity and its write log.
func requireSameTraffic(t *testing.T, what string, a, b twin) {
	t.Helper()
	if a.c.Stats() != b.c.Stats() {
		t.Fatalf("%s: stats %+v, built %+v", what, a.c.Stats(), b.c.Stats())
	}
	pa, aa := a.c.SpinProbe()
	pb, ab := b.c.SpinProbe()
	if pa != pb || aa != ab {
		t.Fatalf("%s: spin probe (%d,%d), built (%d,%d)", what, pa, aa, pb, ab)
	}
	if a.x.Stats() != b.x.Stats() || a.x.BusyUntil() != b.x.BusyUntil() {
		t.Fatalf("%s: bus %+v, built %+v", what, a.x.Stats(), b.x.Stats())
	}
	if !slices.Equal(a.log.writes, b.log.writes) {
		t.Fatalf("%s: bus writes %#x, built %#x", what, a.log.writes, b.log.writes)
	}
}
