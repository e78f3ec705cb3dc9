// Package nipt implements the Network Interface Page Table, the key
// component of the SHRIMP network interface (paper §4).
//
// The NIPT has one entry per page of the node's physical memory. Each
// entry records whether (and how) that page is mapped out to a physical
// page on another node, and whether the page is mapped in as a receive
// destination. Per §3.2, a page may be split between two outgoing
// mappings at a configurable offset, so an entry holds up to two
// outgoing halves.
package nipt

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
)

// Mode is an outgoing mapping's update strategy (§2, §4.1, §4.3).
type Mode uint8

const (
	// Unmapped means the page (or page half) has no outgoing mapping.
	Unmapped Mode = iota
	// SingleWriteAU: every snooped store becomes one packet immediately.
	SingleWriteAU
	// BlockedWriteAU: consecutive same-page stores within the merge
	// window coalesce into one packet before transmission.
	BlockedWriteAU
	// DeliberateUpdate: stores update only local memory; data moves when
	// the process issues an explicit user-level DMA send command.
	DeliberateUpdate
)

func (m Mode) String() string {
	switch m {
	case Unmapped:
		return "unmapped"
	case SingleWriteAU:
		return "single-write"
	case BlockedWriteAU:
		return "blocked-write"
	case DeliberateUpdate:
		return "deliberate"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Automatic reports whether stores to the mapping propagate on their own.
func (m Mode) Automatic() bool { return m == SingleWriteAU || m == BlockedWriteAU }

// OutMapping is one outgoing mapping half: local offsets covered by this
// half send to DstPage on the node at DstCoord, preserving the offset
// (shifted for non-page-aligned split mappings by DstShift).
type OutMapping struct {
	Mode     Mode
	Dst      packet.Coord
	DstNode  packet.NodeID
	DstPage  phys.PageNum
	DstShift int32 // added to the local offset to form the remote offset
}

// Entry is one NIPT entry: the state of one local physical page.
//
// Split is the byte offset at which the page divides between the Lo and
// Hi outgoing halves; Split == 0 means the Lo half covers the whole page
// (the common, unsplit case) and Hi must be Unmapped.
type Entry struct {
	Lo    OutMapping
	Hi    OutMapping
	Split uint32

	// MappedIn marks the page as a receive destination referenced by a
	// remote NIPT. The kernel consults it for the paging policy (§4.4).
	MappedIn bool
	// RecvInterrupt requests a CPU interrupt when data arrives for this
	// page (set through a VM-mapped command, §4.2).
	RecvInterrupt bool
	// KernelRing marks the page as a boot-time kernel message ring.
	KernelRing bool
}

// Out returns the outgoing mapping governing the given page offset.
func (e *Entry) Out(off uint32) *OutMapping {
	if e.Split != 0 && off >= e.Split {
		return &e.Hi
	}
	return &e.Lo
}

// MappedOut reports whether any part of the page has an outgoing mapping.
func (e *Entry) MappedOut() bool {
	return e.Lo.Mode != Unmapped || (e.Split != 0 && e.Hi.Mode != Unmapped)
}

// Table is the page table of one network interface.
//
// Entries live in fixed chunks of chunkPages, built on first touch: a
// chunk nobody has asked for through Entry reads as the table's
// power-on contents (SetBoot), so a table costs what its node touches
// rather than what its memory holds. Reset refills the built chunks in
// place.
type Table struct {
	dir   []*chunk // by page >> chunkShift; nil until first touched
	pages int
	boot  func(phys.PageNum) Entry // power-on contents; nil means all zero
	built []int32                  // directory slots holding a chunk
	scope *obs.NodeScope           // nil when metrics are disabled
}

const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

type chunk [chunkPages]Entry

// New returns a table covering the given number of physical pages.
func New(pages int) *Table {
	return &Table{dir: make([]*chunk, (pages+chunkMask)>>chunkShift), pages: pages}
}

// Pages returns the number of entries.
func (t *Table) Pages() int { return t.pages }

// SetObs attaches the node's metrics scope (nil detaches). Resolve
// counts lookups and misses through it.
func (t *Table) SetObs(s *obs.NodeScope) { t.scope = s }

// SetBoot installs the table's power-on contents: boot(p) is the entry
// page p holds until someone touches it (the hardware analogue is the
// boot firmware's NIPT writes). It returns the table to those contents.
func (t *Table) SetBoot(boot func(phys.PageNum) Entry) {
	t.boot = boot
	t.Reset()
}

// Entry returns the entry for page p, building its chunk on first
// touch. The pointer stays valid for the table's lifetime; callers
// mutate entries through it (the hardware analogue is the kernel
// writing NIPT entries through the NIC's configuration port).
func (t *Table) Entry(p phys.PageNum) *Entry {
	if c := t.dir[p>>chunkShift]; c != nil {
		return &c[p&chunkMask]
	}
	return t.build(p)
}

// MappedOutAt reports whether the page holding a has an outgoing
// mapping, building the page's chunk on first touch. The NIC installs
// it as the bus's CPU-write snoop filter, so it runs on every CPU store.
func (t *Table) MappedOutAt(a phys.PAddr) bool {
	return t.Entry(a.Page()).MappedOut()
}

// build fills p's chunk with the power-on contents and returns p's
// entry.
func (t *Table) build(p phys.PageNum) *Entry {
	if int(p) >= t.pages {
		panic(fmt.Sprintf("nipt: page %d outside a %d-page table", p, t.pages))
	}
	slot := p >> chunkShift
	c := new(chunk)
	t.fill(slot, c)
	t.dir[slot] = c
	t.built = append(t.built, int32(slot))
	return &c[p&chunkMask]
}

// fill writes the power-on contents of directory slot slot into c.
func (t *Table) fill(slot phys.PageNum, c *chunk) {
	first := slot << chunkShift
	for i := range c {
		c[i] = t.bootEntry(first + phys.PageNum(i))
	}
}

func (t *Table) bootEntry(p phys.PageNum) Entry {
	if t.boot == nil || int(p) >= t.pages {
		return Entry{}
	}
	return t.boot(p)
}

// Peek returns a copy of page p's entry without building its chunk:
// the power-on contents if nobody has touched it. Audits that walk the
// whole table use it so that looking does not cost a full build.
func (t *Table) Peek(p phys.PageNum) Entry {
	if c := t.dir[p>>chunkShift]; c != nil {
		return c[p&chunkMask]
	}
	if int(p) >= t.pages {
		panic(fmt.Sprintf("nipt: page %d outside a %d-page table", p, t.pages))
	}
	return t.bootEntry(p)
}

// Reset returns every entry to its power-on contents. It costs what has
// been touched, and allocates nothing: each built chunk is refilled in
// place.
func (t *Table) Reset() {
	for _, slot := range t.built {
		t.fill(phys.PageNum(slot), t.dir[slot])
	}
}

// MapOut installs an outgoing mapping covering the whole page.
func (t *Table) MapOut(p phys.PageNum, m OutMapping) {
	e := t.Entry(p)
	e.Lo = m
	e.Hi = OutMapping{}
	e.Split = 0
}

// MapOutSplit installs a split mapping: offsets < split use lo and
// offsets >= split use hi. split must lie inside the page.
func (t *Table) MapOutSplit(p phys.PageNum, split uint32, lo, hi OutMapping) {
	if split == 0 || split >= phys.PageSize {
		panic(fmt.Sprintf("nipt: split offset %d outside page", split))
	}
	e := t.Entry(p)
	e.Lo, e.Hi, e.Split = lo, hi, split
}

// UnmapOut removes all outgoing mappings from page p.
func (t *Table) UnmapOut(p phys.PageNum) {
	e := t.Entry(p)
	e.Lo, e.Hi, e.Split = OutMapping{}, OutMapping{}, 0
}

// Resolve translates a local physical address through the table. It
// reports the mapping governing the address and the remote physical
// address the data should be delivered to, or ok=false when the address
// is not mapped out.
func (t *Table) Resolve(a phys.PAddr) (m *OutMapping, remote phys.PAddr, ok bool) {
	m, remote, ok = t.Entry(a.Page()).resolve(a.Offset())
	t.CountResolves(1, ok)
	return m, remote, ok
}

// ResolveRun is Resolve for the n bytes of consecutive 4-byte words
// starting at a, all inside a's page, without counting the lookups. It
// returns what Resolve would for a and the number of bytes, from a,
// whose words Resolve treats the same way: through m to consecutive
// remote addresses, or all unmapped. A word belongs to the half its
// first byte's offset selects.
func (t *Table) ResolveRun(a phys.PAddr, n int) (m *OutMapping, remote phys.PAddr, ok bool, run int) {
	e := t.Entry(a.Page())
	off := int64(a.Offset())
	end := off + int64(n)
	if e.Split != 0 && off < int64(e.Split) {
		end = min(end, wordEnd(off, int64(e.Split))) // words starting below Split use Lo
	}
	m, remote, ok = e.resolve(uint32(off))
	half := e.Out(uint32(off))
	switch shift := int64(half.DstShift); {
	case ok: // up to the first word shifted past the remote page
		end = min(end, wordEnd(off, phys.PageSize-shift))
	case half.Mode != Unmapped && off+shift < 0: // up to the first word shifted into it
		end = min(end, wordEnd(off, -shift))
	}
	return m, remote, ok, int(end - off)
}

// wordEnd returns the end of the words from off that start below lim.
func wordEnd(off, lim int64) int64 {
	return off + (lim-off+3)&^3
}

// CountResolves charges words lookups, all hits or all misses, to the
// node's metrics exactly as that many Resolve calls would.
func (t *Table) CountResolves(words uint64, ok bool) {
	t.scope.Add(obs.CtrNIPTLookups, words)
	if !ok {
		t.scope.Add(obs.CtrNIPTMisses, words)
	}
}

// resolve is Resolve's rule for the byte at page offset off.
func (e *Entry) resolve(off uint32) (m *OutMapping, remote phys.PAddr, ok bool) {
	m = e.Out(off)
	if m.Mode == Unmapped {
		return nil, 0, false
	}
	r := int64(off) + int64(m.DstShift)
	if r < 0 || r >= phys.PageSize {
		// A shifted split mapping can push an offset outside the remote
		// page; the kernel must set up splits so this cannot happen, and
		// the hardware would drop such a write.
		return nil, 0, false
	}
	return m, m.DstPage.Addr(uint32(r)), true
}
