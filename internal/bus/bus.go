// Package bus models the two buses of a SHRIMP node (paper §3):
//
//   - the Xpress memory bus, which connects CPU, DRAM and the I/O bridge
//     and which the network interface snoops through the memory extension
//     connector — every write transaction is visible to registered
//     snoopers, which is how automatic update works;
//   - the EISA expansion bus, over which the prototype network interface
//     DMA-transfers incoming data to main memory at a burst-mode peak of
//     33 Mbytes/second — the bandwidth bottleneck of the whole system.
//
// Both buses are single-tenancy timed resources: each transaction
// occupies the bus for a duration derived from its size, and back-to-back
// transactions serialize. Memory side effects happen eagerly (the DES is
// single-threaded and components observe memory only through bus
// transactions), while the returned completion time carries the cost.
package bus

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Initiator identifies which agent mastered a bus transaction. Snoopers
// use it to tell CPU stores (forwarded by the NIC if mapped out) from DMA
// traffic (invalidated by the cache, ignored by the NIC's outgoing path).
type Initiator uint8

const (
	// InitCPU marks transactions issued by the node's processor.
	InitCPU Initiator = iota
	// InitNIC marks transactions mastered by the network interface
	// (deliberate-update DMA reads, next-generation incoming deposits).
	InitNIC
	// InitBridge marks transactions from the EISA-to-Xpress bridge
	// (prototype incoming DMA deposits).
	InitBridge
)

func (i Initiator) String() string {
	switch i {
	case InitCPU:
		return "cpu"
	case InitNIC:
		return "nic"
	case InitBridge:
		return "bridge"
	}
	return fmt.Sprintf("Initiator(%d)", uint8(i))
}

// Snooper observes write transactions on the Xpress bus.
type Snooper interface {
	SnoopWrite(init Initiator, a phys.PAddr, data []byte)
}

// SpanSnooper is a Snooper that can also observe a span: a run of
// consecutive 4-byte CPU writes inside one page, carried out in one
// pass instead of one Write per word (see BeginSpan). The bus spans
// only when every registered snooper is one.
type SpanSnooper interface {
	Snooper
	// SpanLimit reports how many bytes of the words written from a
	// onward (at most n) the snooper would take, the first at now and
	// each later one at most window after the one before it, with
	// nothing scheduled: each word only counted and absorbed, exactly
	// as its SnoopWrite would. A negative limit refuses spans anywhere
	// on a's page for as long as the page's mapping stands.
	SpanLimit(a phys.PAddr, n int, now sim.Time) (limit int, window sim.Time)
	// SnoopSpan observes the words of data written from a, the last of
	// them at last, as one SnoopWrite per word would.
	SnoopSpan(a phys.PAddr, data []byte, last sim.Time)
}

// CommandTarget decodes accesses to the NIC command address space
// (paper §4.2). Command reads and writes are bus transactions that no
// RAM responds to; the network interface claims them.
type CommandTarget interface {
	// CmdRead returns the NIC's response to a read of command address a.
	CmdRead(a phys.PAddr) uint32
	// CmdWrite delivers a write of v to command address a. It reports
	// whether the NIC accepted the command.
	CmdWrite(a phys.PAddr, v uint32) bool
}

// XpressConfig holds the memory bus timing parameters.
type XpressConfig struct {
	Arbitration sim.Time // per-transaction arbitration/overhead
	WordTime    sim.Time // per-8-byte beat
}

// DefaultXpressConfig approximates a ~266 MB/s Xpress bus: 30 ns per
// 8-byte beat plus 30 ns arbitration.
func DefaultXpressConfig() XpressConfig {
	return XpressConfig{Arbitration: 30 * sim.Nanosecond, WordTime: 30 * sim.Nanosecond}
}

// XpressStats aggregates memory bus activity.
type XpressStats struct {
	Reads, Writes uint64
	CmdReads      uint64
	CmdWrites     uint64
	BytesRead     uint64
	BytesWritten  uint64
	// SnoopsFiltered counts CPU writes that skipped the snooper fan-out
	// because the snoop filter reported no interested snooper (see
	// SetSnoopFilter).
	SnoopsFiltered uint64
	ContentionWait sim.Time
	BusyTime       sim.Time
}

// SnoopFilter decides, for a CPU-initiated write to a physical address,
// whether any registered snooper could care. The NIC installs a
// page-granular filter (does the NIPT map this page out?) so the common
// case — stores to private pages — skips the snooper fan-out entirely.
// The filter is consulted live on every write and once per span (see
// BeginSpan), so direct NIPT entry mutations need no invalidation hook.
// A span may consult it once because NIPT entries change only inside
// events and kernel calls, never inside an event-free run of stores.
// Only CPU-initiated writes are filtered: DMA traffic must always reach
// the cache's invalidation port.
type SnoopFilter func(a phys.PAddr) bool

// Xpress is one node's memory bus.
type Xpress struct {
	eng      *sim.Engine
	cfg      XpressConfig
	mem      *phys.Memory
	snoopers []Snooper
	plain    int // snoopers that are not SpanSnoopers: no spans while > 0
	cmd      CommandTarget
	filter   SnoopFilter
	span     Span // the span in progress between BeginSpan and EndSpan
	busyTill sim.Time
	stats    XpressStats
	scope    *obs.NodeScope // nil when metrics are disabled
	scratch  [4]byte        // Write32/Read32/cmd-read staging; consumers copy synchronously
}

// NewXpress builds the memory bus over the given DRAM.
func NewXpress(eng *sim.Engine, cfg XpressConfig, mem *phys.Memory) *Xpress {
	return &Xpress{eng: eng, cfg: cfg, mem: mem}
}

// AddSnooper registers a bus snooper (the NIC, the cache's invalidation
// port). Registration order is the notification order.
func (x *Xpress) AddSnooper(s Snooper) {
	x.snoopers = append(x.snoopers, s)
	if _, ok := s.(SpanSnooper); !ok {
		x.plain++
	}
}

// SetCommandTarget registers the decoder for the command address space.
func (x *Xpress) SetCommandTarget(t CommandTarget) { x.cmd = t }

// SetSnoopFilter installs the CPU-write snoop filter (nil removes it:
// every write fans out, the conservative default).
func (x *Xpress) SetSnoopFilter(f SnoopFilter) { x.filter = f }

// SetObs attaches the node's metrics scope (nil detaches).
func (x *Xpress) SetObs(s *obs.NodeScope) { x.scope = s }

// Memory returns the DRAM behind the bus.
func (x *Xpress) Memory() *phys.Memory { return x.mem }

// Stats returns a snapshot of bus statistics.
func (x *Xpress) Stats() XpressStats { return x.stats }

// BusyUntil returns the time at which all issued transactions complete.
// The cache's posted-write (write buffer) model uses it to decide when
// the CPU must stall behind its own store traffic.
func (x *Xpress) BusyUntil() sim.Time { return x.busyTill }

// Reset returns the bus to its just-built state: idle, zeroed
// statistics. Registered snoopers and the command target persist — they
// are wiring, not state.
func (x *Xpress) Reset() {
	x.busyTill = 0
	x.stats = XpressStats{}
}

// cost returns the tenure duration for an n-byte transaction.
func (x *Xpress) cost(n int) sim.Time {
	beats := sim.Time((n + 7) / 8)
	if beats == 0 {
		beats = 1
	}
	return x.cfg.Arbitration + beats*x.cfg.WordTime
}

// tenure is the bus's arbitration rule: a transaction requested at now
// starts once the traffic ahead of it, busy until busy, completes, and
// waits the difference.
func tenure(now, busy sim.Time) (start, wait sim.Time) {
	if busy > now {
		return busy, busy - now
	}
	return now, 0
}

// acquire serializes a transaction of the given size behind current bus
// traffic, returning its completion time.
func (x *Xpress) acquire(n int) sim.Time {
	start, wait := tenure(x.eng.Now(), x.busyTill)
	x.scope.Inc(obs.CtrBusTxns)
	if wait > 0 {
		x.stats.ContentionWait += wait
		x.scope.Add(obs.CtrBusWaitPs, uint64(wait))
	}
	d := x.cost(n)
	x.busyTill = start + d
	x.stats.BusyTime += d
	return x.busyTill
}

// Write performs a write transaction: DRAM is updated and all snoopers
// observe it. Writes to the command space are routed to the command
// target instead (only 32-bit command writes are meaningful).
func (x *Xpress) Write(init Initiator, a phys.PAddr, data []byte) (done sim.Time) {
	done = x.acquire(len(data))
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: command write %#x with no command target", uint32(a)))
		}
		x.stats.CmdWrites++
		var v uint32
		for i := 0; i < len(data) && i < 4; i++ {
			v |= uint32(data[i]) << (8 * i)
		}
		x.cmd.CmdWrite(a, v)
		return done
	}
	x.stats.Writes++
	x.stats.BytesWritten += uint64(len(data))
	x.mem.Write(a, data)
	if init == InitCPU && x.filter != nil && !x.filter(a) {
		x.stats.SnoopsFiltered++
		x.scope.Inc(obs.CtrSnoopsFiltered)
		return done
	}
	for _, s := range x.snoopers {
		s.SnoopWrite(init, a, data)
	}
	return done
}

// Span is a run of consecutive 4-byte CPU writes inside one page that
// the bus carries out in one pass: BeginSpan plans it, Word books each
// word's tenure as Write would, and EndSpan performs the booked words.
// A bus has one span at a time. Nothing may touch the bus between
// BeginSpan and EndSpan, and no event may fire in between: the booked
// words are issued at instants the caller computes, not at the
// engine's clock.
type Span struct {
	limit  int      // bytes the bus and its snoopers take; < 0 refuses the page
	window sim.Time // longest gap between consecutive words the snoopers take
	snoop  bool     // the snoop filter passes the page: fan out at EndSpan
	cost   sim.Time // one word's tenure
	n      int      // bytes booked
	last   sim.Time // issue instant of the last booked word
	busy   sim.Time // busy-until after the booked words
	wait   sim.Time // contention summed over the booked words
}

// BeginSpan plans a span of the n bytes of words from a (word-aligned)
// issued from now on. The span stays inside a's page, takes no command
// space, and takes only what every snooper takes with nothing scheduled.
// The snoop filter is consulted once, for the whole page.
func (x *Xpress) BeginSpan(a phys.PAddr, n int, now sim.Time) *Span {
	s := &x.span
	*s = Span{window: sim.Forever, cost: x.cost(4), busy: x.busyTill}
	if x.plain > 0 || x.mem.IsCmd(a) {
		s.limit = -1
		return s
	}
	s.limit = min(n, int(phys.PageSize-a.Offset()))
	if x.filter != nil && !x.filter(a) {
		return s
	}
	s.snoop = true
	for _, sn := range x.snoopers {
		limit, window := sn.(SpanSnooper).SpanLimit(a, s.limit, now)
		if limit < 0 {
			s.limit = -1
			return s
		}
		s.limit, s.window = min(s.limit, limit), min(s.window, window)
	}
	return s
}

// Refused reports whether the span can take nothing anywhere on its page.
func (s *Span) Refused() bool { return s.limit < 0 }

// Bytes returns the bytes booked so far.
func (s *Span) Bytes() int { return s.n }

// BusyUntil is the bus's BusyUntil as the booked words leave it.
func (s *Span) BusyUntil() sim.Time { return s.busy }

// Word books the next word, issued at now, under the same tenure rule
// as Write. It books nothing and reports false when the span cannot
// take the word.
func (s *Span) Word(now sim.Time) bool {
	if s.n+4 > s.limit || (s.n > 0 && now-s.last > s.window) {
		return false
	}
	start, wait := tenure(now, s.busy)
	s.busy = start + s.cost
	s.wait += wait
	s.last = now
	s.n += 4
	return true
}

// EndSpan performs the span's booked words, whose bytes are data, at a:
// DRAM, statistics and snoopers end exactly as one Write per word would
// leave them.
func (x *Xpress) EndSpan(a phys.PAddr, data []byte) {
	s := &x.span
	words := uint64(len(data) / 4)
	x.busyTill = s.busy
	x.stats.ContentionWait += s.wait
	x.stats.BusyTime += sim.Time(words) * s.cost
	x.stats.Writes += words
	x.stats.BytesWritten += uint64(len(data))
	x.scope.Add(obs.CtrBusTxns, words)
	if s.wait > 0 {
		x.scope.Add(obs.CtrBusWaitPs, uint64(s.wait))
	}
	// The snoopers see the words as DRAM now holds them, so the caller's
	// buffer never leaves the call.
	written := x.mem.View(a, len(data))
	copy(written, data)
	if !s.snoop {
		x.stats.SnoopsFiltered += words
		x.scope.Add(obs.CtrSnoopsFiltered, words)
		return
	}
	for _, sn := range x.snoopers {
		sn.(SpanSnooper).SnoopSpan(a, written, s.last)
	}
}

// Write32 is a convenience 32-bit Write. The payload is staged in the
// bus-owned scratch buffer (snoopers copy write data synchronously and
// never retain the slice), so it allocates nothing.
func (x *Xpress) Write32(init Initiator, a phys.PAddr, v uint32) sim.Time {
	return x.Write(init, a, x.leBytes(v))
}

// Read performs a read transaction of n bytes at a. Command-space reads
// return a view of the bus-owned scratch buffer, valid until the next
// transaction; callers consume read data synchronously.
func (x *Xpress) Read(init Initiator, a phys.PAddr, n int) (data []byte, done sim.Time) {
	done = x.acquire(n)
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: command read %#x with no command target", uint32(a)))
		}
		x.stats.CmdReads++
		return x.leBytes(x.cmd.CmdRead(a))[:min(n, 4)], done
	}
	x.stats.Reads++
	x.stats.BytesRead += uint64(n)
	return x.mem.Read(a, n), done
}

// ReadInto performs a read transaction of len(dst) bytes at a, copying
// into dst: the allocation-free twin of Read for DMA engines that reuse a
// scratch buffer. The command address space is not readable through this
// path.
func (x *Xpress) ReadInto(init Initiator, a phys.PAddr, dst []byte) (done sim.Time) {
	done = x.acquire(len(dst))
	if x.mem.IsCmd(a) {
		panic(fmt.Sprintf("bus: ReadInto of command address %#x", uint32(a)))
	}
	x.stats.Reads++
	x.stats.BytesRead += uint64(len(dst))
	x.mem.ReadInto(a, dst)
	return done
}

// Read32 is a convenience 32-bit Read; it bypasses the slice-returning
// path entirely, so 4-byte kernel/NIC/cache reads allocate nothing.
func (x *Xpress) Read32(init Initiator, a phys.PAddr) (uint32, sim.Time) {
	done := x.acquire(4)
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: command read %#x with no command target", uint32(a)))
		}
		x.stats.CmdReads++
		return x.cmd.CmdRead(a), done
	}
	x.stats.Reads++
	x.stats.BytesRead += 4
	return x.mem.Read32(a), done
}

// LockedCmpxchg performs the locked compare-and-exchange bus sequence of
// §4.3: a read cycle, then — iff the read value equals expect — a write
// cycle, all in one bus tenure. It reports the value returned by the read
// cycle and whether the write cycle was generated.
func (x *Xpress) LockedCmpxchg(init Initiator, a phys.PAddr, expect, repl uint32) (read uint32, swapped bool, done sim.Time) {
	// One tenure covering both cycles (LOCK holds the bus).
	done = x.acquire(8)
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: locked cmpxchg %#x with no command target", uint32(a)))
		}
		x.stats.CmdReads++
		read = x.cmd.CmdRead(a)
		if read == expect {
			x.stats.CmdWrites++
			if x.cmd.CmdWrite(a, repl) {
				swapped = true
			}
		}
		return read, swapped, done
	}
	x.stats.Reads++
	read = x.mem.Read32(a)
	if read == expect {
		x.stats.Writes++
		x.mem.Write32(a, repl)
		if init == InitCPU && x.filter != nil && !x.filter(a) {
			x.stats.SnoopsFiltered++
			x.scope.Inc(obs.CtrSnoopsFiltered)
		} else {
			for _, s := range x.snoopers {
				s.SnoopWrite(init, a, x.leBytes(repl))
			}
		}
		swapped = true
	}
	return read, swapped, done
}

// leBytes stages v little-endian in the bus-owned scratch buffer. Bus
// consumers copy read/write data synchronously and never retain the
// slice, so reusing one buffer per bus is safe.
func (x *Xpress) leBytes(v uint32) []byte {
	x.scratch[0] = byte(v)
	x.scratch[1] = byte(v >> 8)
	x.scratch[2] = byte(v >> 16)
	x.scratch[3] = byte(v >> 24)
	return x.scratch[:4]
}
