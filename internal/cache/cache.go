// Package cache models a node CPU's cache in the way the SHRIMP design
// depends on it (paper §3):
//
//   - memory can be cached write-through or write-back on a per-page
//     basis, as specified in process page tables — the kernel configures
//     mapped-out automatic-update pages as write-through so that every
//     store appears on the Xpress bus where the NIC snoops it;
//   - the cache snoops DMA transactions and invalidates the corresponding
//     lines, so incoming network data deposited by DMA stays coherent
//     with what the CPU reads;
//   - write-through stores complete into a write buffer, so the CPU
//     "suffers only the local write-through cache latency" while the bus
//     transaction drains behind it.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bus"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Config holds the cache geometry and timing.
type Config struct {
	Sets      int      // number of sets (power of two)
	Ways      int      // associativity
	LineBytes int      // line size (power of two)
	HitTime   sim.Time // CPU-visible latency of a hit / buffered store
	// WriteBufferWindow bounds how far the posted-write stream may run
	// ahead of the bus; beyond it the CPU stalls until the bus drains.
	WriteBufferWindow sim.Time
}

// DefaultConfig returns a 16 KB 2-way cache with 32-byte lines, a 15 ns
// hit time (one 66 MHz CPU cycle) and an 8-write-deep buffer window.
func DefaultConfig() Config {
	return Config{
		Sets:              256,
		Ways:              2,
		LineBytes:         32,
		HitTime:           15 * sim.Nanosecond,
		WriteBufferWindow: 8 * 90 * sim.Nanosecond,
	}
}

// Stats aggregates cache activity.
type Stats struct {
	LoadHits, LoadMisses   uint64
	StoreHits, StoreMisses uint64
	SnoopInvalidations     uint64
	WriteBacks             uint64
	WriteBufferStall       sim.Time
}

type line struct {
	valid bool
	dirty bool
	tag   uint32
	data  []byte
	lru   uint64
}

// Cache is one CPU's cache attached to an Xpress bus. It registers
// itself as a bus snooper for DMA invalidations.
type Cache struct {
	eng   *sim.Engine
	cfg   Config
	xbus  *bus.Xpress
	sets  [][]line
	clock uint64
	stats Stats

	lineMask uint32
	setMask  uint32
	setShift uint32 // log2(LineBytes): line offset bits
	tagShift uint32 // log2(Sets): set index bits above the line offset
	scratch  [4]byte

	// Spin-probe access counters (see SpinProbe). pureAcc counts only
	// load hits — accesses with a fixed, state-independent latency that
	// touch nothing outside this cache. allAcc counts every access.
	pureAcc uint64
	allAcc  uint64
}

// New builds a cache over the given bus and registers its snoop port.
func New(eng *sim.Engine, cfg Config, xbus *bus.Xpress) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: sets and line size must be powers of two")
	}
	// Only the set headers: the lines and their data are built the first
	// time the cache needs a way (victim). Until then every set is
	// empty, so lookups miss and invalidations find nothing.
	c := &Cache{eng: eng, cfg: cfg, xbus: xbus, sets: make([][]line, cfg.Sets)}
	c.lineMask = uint32(cfg.LineBytes - 1)
	c.setShift = uint32(bits.TrailingZeros32(uint32(cfg.LineBytes)))
	c.tagShift = uint32(bits.TrailingZeros32(uint32(cfg.Sets)))
	c.setMask = uint32(cfg.Sets - 1)
	xbus.AddSnooper(snoopPort{c})
	return c
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates every line and zeroes the LRU clock and statistics,
// returning the cache to its just-built state. Built lines are retained
// (an invalid line's contents are unobservable), so a reset cache
// allocates nothing.
func (c *Cache) Reset() {
	for _, ways := range c.sets {
		for w := range ways {
			ways[w].valid = false
			ways[w].dirty = false
			ways[w].tag = 0
			ways[w].lru = 0
		}
	}
	c.clock = 0
	c.stats = Stats{}
	c.pureAcc = 0
	c.allAcc = 0
}

// LineState is one valid cache line as Lines reports it.
type LineState struct {
	Base  phys.PAddr
	Dirty bool
	LRU   uint64
	Data  string
}

// Lines returns every valid line, set by set and way by way: what the
// cache holds, for differential tests to compare two caches by.
func (c *Cache) Lines() []LineState {
	var out []LineState
	for s, ways := range c.sets {
		for _, l := range ways {
			if l.valid {
				out = append(out, LineState{c.lineBase(uint32(s), l.tag), l.dirty, l.lru, string(l.data)})
			}
		}
	}
	return out
}

// SpinProbe returns the pure-access and total-access counters the CPU's
// spin fast-forward uses to verify that a candidate wait loop touched
// nothing but cache load hits: a loop iteration is memory-pure iff the
// two counters advanced by the same (nonzero) amount across it. Load
// hits have a fixed HitTime latency and perturb no state outside the
// cache, so a pure iteration is exactly repeatable until some engine
// event intervenes.
func (c *Cache) SpinProbe() (pure, all uint64) { return c.pureAcc, c.allAcc }

// SpinAccount charges iters skipped spin iterations, each performing
// loads pure load hits, to the statistics — keeping cache.Stats
// bit-identical with literally retiring the same iterations. (The LRU
// clock is deliberately not advanced: only the relative order of clock
// values matters, and repeated hits to the same lines preserve it.)
func (c *Cache) SpinAccount(iters, loads uint64) {
	c.stats.LoadHits += iters * loads
	c.pureAcc += iters * loads
	c.allAcc += iters * loads
}

func (c *Cache) decompose(a phys.PAddr) (set, tag, off uint32) {
	u := uint32(a)
	return (u >> c.setShift) & c.setMask, u >> c.setShift >> c.tagShift, u & c.lineMask
}

func (c *Cache) lookup(a phys.PAddr) *line {
	set, tag, _ := c.decompose(a)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			return l
		}
	}
	return nil
}

// victim picks the LRU way of a's set, writing it back if dirty. The
// first fill builds the cache's lines.
func (c *Cache) victim(a phys.PAddr) *line {
	set, _, _ := c.decompose(a)
	if len(c.sets[set]) == 0 {
		c.buildLines()
	}
	v := &c.sets[set][0]
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if !l.valid {
			v = l
			break
		}
		if l.lru < v.lru {
			v = l
		}
	}
	if v.valid && v.dirty {
		c.stats.WriteBacks++
		c.xbus.Write(bus.InitCPU, c.lineBase(set, v.tag), v.data)
		v.dirty = false
	}
	return v
}

// buildLines allocates every set's ways, all invalid: one backing
// array for the lines and one for their data, two allocations per cache
// instead of Sets*(Ways+1).
func (c *Cache) buildLines() {
	ways, lb := c.cfg.Ways, c.cfg.LineBytes
	lines := make([]line, c.cfg.Sets*ways)
	data := make([]byte, c.cfg.Sets*ways*lb)
	for i := range c.sets {
		set := lines[i*ways : (i+1)*ways : (i+1)*ways]
		for w := range set {
			base := (i*ways + w) * lb
			set[w].data = data[base : base+lb : base+lb]
		}
		c.sets[i] = set
	}
}

func (c *Cache) lineBase(set, tag uint32) phys.PAddr {
	return phys.PAddr((tag<<c.tagShift | set) << c.setShift)
}

// Load reads size (1, 2 or 4) bytes at a, returning the value and the
// CPU-visible latency. Accesses that straddle a cache line split into
// two line accesses.
func (c *Cache) Load(a phys.PAddr, size int) (uint32, sim.Time) {
	if first := c.cfg.LineBytes - int(uint32(a)&c.lineMask); size > first && !c.xbus.Memory().IsCmd(a) {
		lo, t1 := c.load(a, first)
		hi, t2 := c.load(a+phys.PAddr(first), size-first)
		return lo | hi<<(8*uint(first)), t1 + t2
	}
	return c.load(a, size)
}

func (c *Cache) load(a phys.PAddr, size int) (uint32, sim.Time) {
	if c.xbus.Memory().IsCmd(a) {
		c.allAcc++ // command reads hit the bus: never pure
		v, done := c.xbus.Read32(bus.InitCPU, a)
		return truncate(v, size), done - c.eng.Now()
	}
	l, lat := c.loadLine(a)
	return truncate(read32(l.data, uint32(a)&c.lineMask), size), lat
}

// loadLine charges one load of the DRAM address a and returns the line
// now holding it: a hit, or a miss that evicts the set's LRU way
// (writing it back if dirty) and fills the line over the bus.
func (c *Cache) loadLine(a phys.PAddr) (*line, sim.Time) {
	if l := c.lookup(a); l != nil {
		c.stats.LoadHits++
		c.pureAcc++
		c.allAcc++
		return l, c.cfg.HitTime
	}
	c.stats.LoadMisses++
	c.allAcc++
	l := c.victim(a)
	set, tag, _ := c.decompose(a)
	done := c.xbus.ReadInto(bus.InitCPU, c.lineBase(set, tag), l.data)
	l.valid, l.dirty, l.tag = true, false, tag
	c.clock++
	l.lru = c.clock
	return l, done - c.eng.Now()
}

// LoadBytes reads len(out) bytes starting at a, leaving the cache, its
// statistics and the bus exactly as len(out) ascending one-byte Loads
// would. Each run that stays inside one cache line costs one lookup:
// its first byte is an ordinary load (hit or miss), and the rest are the
// hits the byte loads would have been — LoadHits, the spin-probe
// counters and the LRU clock each advance by the run length minus one,
// and the line ends stamped with the final clock. Command-space bytes
// are bus reads with side effects, so they take the per-byte path.
func (c *Cache) LoadBytes(a phys.PAddr, out []byte) {
	for len(out) > 0 {
		if c.xbus.Memory().IsCmd(a) {
			v, _ := c.load(a, 1)
			out[0] = byte(v)
			out = out[1:]
			a++
			continue
		}
		off := uint32(a) & c.lineMask
		n := min(len(out), c.cfg.LineBytes-int(off))
		l, _ := c.loadLine(a)
		copy(out[:n], l.data[off:])
		if rest := uint64(n - 1); rest > 0 {
			c.stats.LoadHits += rest
			c.pureAcc += rest
			c.allAcc += rest
			c.clock += rest
			l.lru = c.clock
		}
		out = out[n:]
		a += phys.PAddr(n)
	}
}

// Store writes size (1, 2 or 4) bytes at a. writeThrough selects the
// policy for this access, which the caller derives from the page table
// entry. The returned latency is what the CPU observes.
func (c *Cache) Store(a phys.PAddr, v uint32, size int, writeThrough bool) sim.Time {
	c.allAcc++ // stores are never pure
	if c.xbus.Memory().IsCmd(a) {
		// Command space writes are uncacheable bus transactions.
		done := c.xbus.Write(bus.InitCPU, a, c.leBytes(v, size))
		return done - c.eng.Now()
	}
	if first := c.cfg.LineBytes - int(uint32(a)&c.lineMask); size > first {
		t1 := c.Store(a, truncate(v, first), first, writeThrough)
		t2 := c.Store(a+phys.PAddr(first), v>>(8*uint(first)), size-first, writeThrough)
		return t1 + t2
	}
	_, _, off := c.decompose(a)
	if l := c.lookup(a); l != nil {
		c.stats.StoreHits++
		write32(l.data, off, v, size)
		if !writeThrough {
			l.dirty = true
			return c.cfg.HitTime
		}
	} else if !writeThrough {
		// Write-back pages write-allocate.
		c.stats.StoreMisses++
		l = c.victim(a)
		set, tag, _ := c.decompose(a)
		base := c.lineBase(set, tag)
		c.xbus.ReadInto(bus.InitCPU, base, l.data)
		l.valid, l.tag = true, tag
		write32(l.data, off, v, size)
		l.dirty = true
		return c.cfg.HitTime
	} else {
		// Write-through without allocate: the store just goes to the bus.
		c.stats.StoreMisses++
	}
	// Write-through: post the bus write; stall only if the write buffer
	// has run too far ahead of the bus.
	stall := c.stall(c.xbus.BusyUntil(), c.eng.Now())
	c.stats.WriteBufferStall += stall
	c.xbus.Write(bus.InitCPU, a, c.leBytes(v, size))
	return c.cfg.HitTime + stall
}

// stall is the write buffer's rule: a write-through store issued at now
// waits until the bus, busy until busy, is at most WriteBufferWindow
// behind it.
func (c *Cache) stall(busy, now sim.Time) sim.Time {
	if ahead := busy - now; ahead > c.cfg.WriteBufferWindow {
		return ahead - c.cfg.WriteBufferWindow
	}
	return 0
}

// StoreSpan stores the whole words of data at a, a word-aligned
// write-through address, as that many 4-byte Stores would if each were
// issued the instant the one before it completed, starting now. It
// stops after the first word whose completion reaches horizon, and
// before a word the bus or a snooper cannot take without scheduling an
// event (see bus.BeginSpan), so no event falls inside the span. The
// engine's clock is left where it was: StoreSpan returns the bytes
// stored, and the issue instant and latency of the last word, for the
// caller to advance time by. A span that stores nothing returns 0, or
// -1 when no span can start anywhere on a's page.
func (c *Cache) StoreSpan(a phys.PAddr, data []byte, horizon sim.Time) (n int, at, lat sim.Time) {
	now := c.eng.Now()
	sp := c.xbus.BeginSpan(a, len(data)&^3, now)
	if sp.Refused() {
		return -1, 0, 0
	}
	for t := now; t < horizon; t = at + lat {
		stall := c.stall(sp.BusyUntil(), t)
		if !sp.Word(t) {
			break
		}
		at, lat = t, c.cfg.HitTime+stall
		c.stats.WriteBufferStall += stall
	}
	n = sp.Bytes()
	if n == 0 {
		return 0, 0, 0
	}
	c.allAcc += uint64(n / 4) // stores are never pure
	c.storeLines(a, data[:n])
	c.xbus.EndSpan(a, data[:n])
	return n, at, lat
}

// storeLines writes the whole words of data at a into the lines that
// hold them, charging each word as Store charges a write-through word:
// one lookup per line run, the run's other words the hits (or
// no-allocate misses) their Stores would have been, the LRU clock
// advanced once per hit and the line stamped with the final clock.
func (c *Cache) storeLines(a phys.PAddr, data []byte) {
	for len(data) > 0 {
		off := uint32(a) & c.lineMask
		k := min(len(data), c.cfg.LineBytes-int(off))
		words := uint64(k / 4)
		if l := c.lookup(a); l != nil {
			copy(l.data[off:], data[:k])
			c.stats.StoreHits += words
			c.clock += words - 1
			l.lru = c.clock
		} else {
			c.stats.StoreMisses += words
		}
		data = data[k:]
		a += phys.PAddr(k)
	}
}

// LockedCmpxchg forwards the §4.3 locked read-modify-write to the bus,
// bypassing the cache (LOCK-prefixed operations and command space are
// uncacheable).
func (c *Cache) LockedCmpxchg(a phys.PAddr, expect, repl uint32) (read uint32, swapped bool, lat sim.Time) {
	c.allAcc++ // locked RMWs go to the bus: never pure
	if !c.xbus.Memory().IsCmd(a) {
		// Keep the cache coherent with a locked RMW on DRAM.
		if l := c.lookup(a); l != nil {
			cur := read32(l.data, uint32(a)&c.lineMask)
			if cur == expect {
				write32(l.data, uint32(a)&c.lineMask, repl, 4)
			}
		}
	}
	read, swapped, done := c.xbus.LockedCmpxchg(bus.InitCPU, a, expect, repl)
	return read, swapped, done - c.eng.Now()
}

// FlushPage writes back and invalidates every line belonging to the
// given physical page. The kernel uses it when a page's caching policy
// changes (map to write-through) and around page replacement.
func (c *Cache) FlushPage(page phys.PageNum) {
	lo, hi := uint32(page.Addr(0)), uint32(page.Addr(0))+phys.PageSize
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if !l.valid {
				continue
			}
			base := uint32(c.lineBase(uint32(s), l.tag))
			if base < lo || base >= hi {
				continue
			}
			if l.dirty {
				c.stats.WriteBacks++
				c.xbus.Write(bus.InitCPU, phys.PAddr(base), l.data)
			}
			l.valid, l.dirty = false, false
		}
	}
}

// Flush writes back all dirty lines and invalidates the cache.
func (c *Cache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && l.dirty {
				c.stats.WriteBacks++
				c.xbus.Write(bus.InitCPU, c.lineBase(uint32(s), l.tag), l.data)
			}
			l.valid, l.dirty = false, false
		}
	}
}

// snoopPort adapts the cache to the bus.Snooper interface: DMA writes
// invalidate matching lines (paper §3: "the caches snoop DMA transactions
// and automatically invalidate corresponding cache lines"). A dirty line
// hit by a partial-line DMA write is merged the way snooping hardware
// does: the cache supplies its dirty line during the snoop phase, the
// DMA bytes win for the range they cover, and the line is invalidated.
type snoopPort struct{ c *Cache }

// SpanLimit implements bus.SpanSnooper: the port ignores CPU writes,
// so it takes any span.
func (p snoopPort) SpanLimit(a phys.PAddr, n int, now sim.Time) (int, sim.Time) {
	return n, sim.Forever
}

// SnoopSpan implements bus.SpanSnooper: spans are CPU writes.
func (p snoopPort) SnoopSpan(a phys.PAddr, data []byte, last sim.Time) {}

func (p snoopPort) SnoopWrite(init bus.Initiator, a phys.PAddr, data []byte) {
	if init == bus.InitCPU {
		return
	}
	c := p.c
	first := uint32(a) &^ c.lineMask
	last := (uint32(a) + uint32(len(data)) - 1) &^ c.lineMask
	for base := first; base <= last; base += uint32(c.cfg.LineBytes) {
		l := c.lookup(phys.PAddr(base))
		if l == nil {
			continue
		}
		if l.dirty {
			// Merge: dirty line data underneath, DMA bytes on top.
			c.xbus.Memory().Write(phys.PAddr(base), l.data)
			lo, hi := uint32(a), uint32(a)+uint32(len(data))
			if lo < base {
				lo = base
			}
			if end := base + uint32(c.cfg.LineBytes); hi > end {
				hi = end
			}
			c.xbus.Memory().Write(phys.PAddr(lo), data[lo-uint32(a):hi-uint32(a)])
		}
		l.valid = false
		l.dirty = false
		c.stats.SnoopInvalidations++
	}
}

func read32(b []byte, off uint32) uint32 {
	if int(off)+4 <= len(b) {
		return binary.LittleEndian.Uint32(b[off:])
	}
	var v uint32
	for i := uint32(0); int(off+i) < len(b); i++ {
		v |= uint32(b[off+i]) << (8 * i)
	}
	return v
}

func write32(b []byte, off uint32, v uint32, size int) {
	for i := 0; i < size; i++ {
		if int(off)+i < len(b) {
			b[off+uint32(i)] = byte(v >> (8 * i))
		}
	}
}

func truncate(v uint32, size int) uint32 {
	if size <= 0 || size > 4 {
		panic(fmt.Sprintf("cache: bad access size %d", size))
	}
	if size == 4 {
		return v
	}
	return v & (1<<(8*uint(size)) - 1)
}

// leBytes encodes v into the cache's scratch buffer. Bus consumers copy
// write data synchronously and never retain the slice, so reusing one
// buffer per cache is safe.
func (c *Cache) leBytes(v uint32, size int) []byte {
	b := c.scratch[:size]
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
