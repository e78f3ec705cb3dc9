package nipt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/phys"
)

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{
		Unmapped:         "unmapped",
		SingleWriteAU:    "single-write",
		BlockedWriteAU:   "blocked-write",
		DeliberateUpdate: "deliberate",
	}
	for m, s := range cases {
		if m.String() != s {
			t.Fatalf("%d -> %q", m, m.String())
		}
	}
	if !SingleWriteAU.Automatic() || !BlockedWriteAU.Automatic() {
		t.Fatal("AU modes must report Automatic")
	}
	if DeliberateUpdate.Automatic() || Unmapped.Automatic() {
		t.Fatal("non-AU modes must not report Automatic")
	}
}

func TestWholePageMapping(t *testing.T) {
	tb := New(8)
	if tb.Pages() != 8 {
		t.Fatal("pages")
	}
	out := OutMapping{Mode: SingleWriteAU, Dst: packet.Coord{X: 1, Y: 0}, DstNode: 1, DstPage: 42}
	tb.MapOut(3, out)

	for _, off := range []uint32{0, 100, phys.PageSize - 4} {
		m, remote, ok := tb.Resolve(phys.PageNum(3).Addr(off))
		if !ok || m.Mode != SingleWriteAU {
			t.Fatalf("resolve off %d failed", off)
		}
		if remote != phys.PageNum(42).Addr(off) {
			t.Fatalf("remote %#x for off %d", uint32(remote), off)
		}
	}
	// Other pages unaffected.
	if _, _, ok := tb.Resolve(phys.PageNum(2).Addr(0)); ok {
		t.Fatal("unmapped page resolved")
	}
	if !tb.Entry(3).MappedOut() || tb.Entry(2).MappedOut() {
		t.Fatal("MappedOut flags wrong")
	}
	tb.UnmapOut(3)
	if _, _, ok := tb.Resolve(phys.PageNum(3).Addr(0)); ok {
		t.Fatal("resolve after unmap")
	}
}

func TestSplitPageMapping(t *testing.T) {
	// §3.2: a page split between two mappings at a configurable offset.
	tb := New(4)
	lo := OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 10, DstShift: 256}
	hi := OutMapping{Mode: DeliberateUpdate, DstNode: 2, DstPage: 20, DstShift: -1024}
	tb.MapOutSplit(1, 1024, lo, hi)

	m, remote, ok := tb.Resolve(phys.PageNum(1).Addr(100))
	if !ok || m.Mode != SingleWriteAU || remote != phys.PageNum(10).Addr(356) {
		t.Fatalf("lo half: %v %#x %v", m, uint32(remote), ok)
	}
	m, remote, ok = tb.Resolve(phys.PageNum(1).Addr(2048))
	if !ok || m.Mode != DeliberateUpdate || remote != phys.PageNum(20).Addr(1024) {
		t.Fatalf("hi half: %v %#x %v", m, uint32(remote), ok)
	}
	// Exactly at the split: hi half.
	if m, _, _ := tb.Resolve(phys.PageNum(1).Addr(1024)); m.Mode != DeliberateUpdate {
		t.Fatal("split boundary belongs to the hi half")
	}
	// Just below: lo half.
	if m, _, _ := tb.Resolve(phys.PageNum(1).Addr(1020)); m.Mode != SingleWriteAU {
		t.Fatal("below split belongs to the lo half")
	}
}

func TestSplitWithUnmappedHalf(t *testing.T) {
	tb := New(2)
	hi := OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 5, DstShift: -2048}
	tb.MapOutSplit(0, 2048, OutMapping{}, hi)
	if _, _, ok := tb.Resolve(phys.PageNum(0).Addr(100)); ok {
		t.Fatal("unmapped lo half resolved")
	}
	if _, remote, ok := tb.Resolve(phys.PageNum(0).Addr(2052)); !ok || remote != phys.PageNum(5).Addr(4) {
		t.Fatal("hi half resolution")
	}
	if !tb.Entry(0).MappedOut() {
		t.Fatal("half-mapped page should report MappedOut")
	}
}

func TestShiftOutsideRemotePageDrops(t *testing.T) {
	tb := New(2)
	// A shift that pushes high offsets past the end of the remote page.
	tb.MapOut(0, OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 3, DstShift: 2048})
	if _, _, ok := tb.Resolve(phys.PageNum(0).Addr(100)); !ok {
		t.Fatal("low offset should resolve")
	}
	if _, _, ok := tb.Resolve(phys.PageNum(0).Addr(3000)); ok {
		t.Fatal("offset shifted past the remote page must not resolve")
	}
}

func TestBadSplitPanics(t *testing.T) {
	tb := New(1)
	for _, split := range []uint32{0, phys.PageSize, phys.PageSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("split %d accepted", split)
				}
			}()
			tb.MapOutSplit(0, split, OutMapping{}, OutMapping{})
		}()
	}
}

func TestResolveConsistentWithOut(t *testing.T) {
	// Property: Resolve agrees with Entry().Out() on which half governs
	// any offset, for arbitrary split points.
	f := func(split uint16, off uint16) bool {
		s := uint32(split)%(phys.PageSize-1) + 1
		o := uint32(off) % phys.PageSize
		tb := New(1)
		lo := OutMapping{Mode: SingleWriteAU, DstPage: 1}
		hi := OutMapping{Mode: BlockedWriteAU, DstPage: 2}
		tb.MapOutSplit(0, s, lo, hi)
		m, _, ok := tb.Resolve(phys.PageNum(0).Addr(o))
		if !ok {
			return false
		}
		wantHi := o >= s
		return (m.Mode == BlockedWriteAU) == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// bootTable is a table whose power-on contents map every third page out
// to the page 1000 above it and mark every fifth page mapped in.
func bootTable(pages int) *Table {
	tb := New(pages)
	tb.SetBoot(func(p phys.PageNum) Entry { return bootContents(p) })
	return tb
}

func bootContents(p phys.PageNum) Entry {
	var e Entry
	if p%3 == 0 {
		e.Lo = OutMapping{Mode: BlockedWriteAU, DstNode: 1, DstPage: p + 1000}
		e.KernelRing = true
	}
	e.MappedIn = p%5 == 0
	return e
}

// TestBootContents pins the power-on contract: every page reads as its
// boot contents before anyone touches it — through Entry, Peek and
// Resolve — and Reset brings them back after mutations.
func TestBootContents(t *testing.T) {
	const pages = 3*chunkPages + 7 // a partial last chunk
	tb := bootTable(pages)
	check := func(when string) {
		t.Helper()
		for p := phys.PageNum(0); int(p) < pages; p++ {
			if got, want := tb.Peek(p), bootContents(p); got != want {
				t.Fatalf("%s: Peek(%d) = %+v, want %+v", when, p, got, want)
			}
			_, remote, ok := tb.Resolve(p.Addr(8))
			if want := p%3 == 0; ok != want || ok && remote != (p+1000).Addr(8) {
				t.Fatalf("%s: Resolve(page %d) = %#x, %v", when, p, uint32(remote), ok)
			}
			if got, want := *tb.Entry(p), bootContents(p); got != want {
				t.Fatalf("%s: Entry(%d) = %+v, want %+v", when, p, got, want)
			}
		}
	}
	check("fresh")
	for p := phys.PageNum(0); int(p) < pages; p += 2 {
		tb.UnmapOut(p)
		tb.Entry(p).RecvInterrupt = true
	}
	tb.MapOut(pages-1, OutMapping{Mode: SingleWriteAU, DstPage: 7})
	first, last := tb.Peek(0), tb.Peek(pages-1)
	if first.MappedOut() || !last.MappedOut() || !tb.Peek(2).RecvInterrupt {
		t.Fatal("Peek does not see mutations of built chunks")
	}
	tb.Reset()
	check("after Reset")
}

// TestBootResetRefillsInPlace checks that Reset costs what was touched:
// it refills the built chunks in place with their power-on contents,
// not the state they held before the Reset, keeps every entry pointer
// valid, and allocates nothing.
func TestBootResetRefillsInPlace(t *testing.T) {
	tb := bootTable(8 * chunkPages)
	e0 := tb.Entry(0)
	e0.RecvInterrupt = true
	e5 := tb.Entry(5*chunkPages + 3)
	*e5 = Entry{Split: 99, MappedIn: true}
	if len(tb.built) != 2 {
		t.Fatalf("%d chunks built, want 2", len(tb.built))
	}
	if allocs := testing.AllocsPerRun(1, tb.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %v", allocs)
	}
	if len(tb.built) != 2 {
		t.Fatalf("after Reset: %d chunks built, want 2", len(tb.built))
	}
	for slot, c := range tb.dir {
		if built := slot == 0 || slot == 5; (c != nil) != built {
			t.Fatalf("slot %d: built %v after Reset, want %v", slot, c != nil, built)
		}
	}
	if tb.Entry(0) != e0 || tb.Entry(5*chunkPages+3) != e5 {
		t.Fatal("Reset moved a built entry")
	}
	for _, base := range []phys.PageNum{0, 5 * chunkPages} {
		for p := base; p < base+chunkPages; p++ {
			if got, want := *tb.Entry(p), bootContents(p); got != want {
				t.Fatalf("refilled chunk: page %d = %+v, want %+v", p, got, want)
			}
		}
	}
	// Steady state: mutate, Reset, touch again allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() {
		tb.Entry(1).Split = 7
		tb.Reset()
		tb.Entry(5 * chunkPages)
	}); allocs != 0 {
		t.Fatalf("steady-state Reset/touch allocates %v", allocs)
	}
}

// TestBootPeekBuildsNothing checks that the auditing accessor never builds
// a chunk, so a whole-table walk leaves the table as lazy as it was.
func TestBootPeekBuildsNothing(t *testing.T) {
	tb := bootTable(4 * chunkPages)
	for p := phys.PageNum(0); int(p) < tb.Pages(); p++ {
		tb.Peek(p)
	}
	if len(tb.built) != 0 {
		t.Fatalf("Peek built %d chunks", len(tb.built))
	}
	for slot, c := range tb.dir {
		if c != nil {
			t.Fatalf("Peek built slot %d", slot)
		}
	}
}

// TestBootSetBootDiscardsBuilt checks that installing power-on
// contents returns the table to them, touched chunks included.
func TestBootSetBootDiscardsBuilt(t *testing.T) {
	tb := New(2 * chunkPages)
	tb.MapOut(3, OutMapping{Mode: SingleWriteAU, DstPage: 1})
	tb.SetBoot(func(p phys.PageNum) Entry { return bootContents(p) })
	for p := phys.PageNum(0); int(p) < tb.Pages(); p++ {
		if got, want := *tb.Entry(p), bootContents(p); got != want {
			t.Fatalf("page %d = %+v, want %+v", p, got, want)
		}
	}
}

// TestResolveRunMatchesResolve pins ResolveRun to per-word Resolve on
// random entries (whole, split at any offset, either half unmapped,
// shifts that push words off either end of the remote page): every
// word of the returned run resolves as its first word does, to the
// next remote address, and a mapped run stops only where the next word
// resolves differently.
func TestResolveRunMatchesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	modes := []Mode{Unmapped, SingleWriteAU, BlockedWriteAU, DeliberateUpdate}
	half := func() OutMapping {
		return OutMapping{
			Mode: modes[rng.Intn(len(modes))], DstNode: 1, DstPage: 7,
			DstShift: int32(rng.Intn(2*phys.PageSize) - phys.PageSize),
		}
	}
	tb := New(1)
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) == 0 {
			tb.MapOut(0, half())
		} else {
			tb.MapOutSplit(0, uint32(1+rng.Intn(phys.PageSize-1)), half(), half())
		}
		off := uint32(rng.Intn(phys.PageSize/4)) * 4
		n := 4 * (1 + rng.Intn(int(phys.PageSize-off)/4))
		a := phys.PageNum(0).Addr(off)
		m, remote, ok, run := tb.ResolveRun(a, n)
		if run < 4 || run > n || run%4 != 0 {
			t.Fatalf("case %d: run %d of %d bytes at %d", i, run, n, off)
		}
		for w := 0; w < run; w += 4 {
			wm, wr, wok := tb.Resolve(a + phys.PAddr(w))
			if wm != m || wok != ok || (ok && wr != remote+phys.PAddr(w)) {
				t.Fatalf("case %d (%+v): word %d of the run at %d resolves to (%v %#x %v), its first to (%v %#x %v)",
					i, *tb.Entry(0), w, off, wm, uint32(wr), wok, m, uint32(remote), ok)
			}
		}
		if ok && run < n {
			wm, wr, wok := tb.Resolve(a + phys.PAddr(run))
			if wm == m && wok == ok && (!ok || wr == remote+phys.PAddr(run)) {
				t.Fatalf("case %d (%+v): the run at %d stops at %d of %d, but the next word resolves alike",
					i, *tb.Entry(0), off, run, n)
			}
		}
	}
}
