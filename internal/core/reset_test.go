package core

import (
	"runtime"
	"testing"

	"repro/internal/nic"
)

// BenchmarkMachineReset measures Machine.Reset of a 4x4 EISA machine
// that has just run an E2 latency point (the sweep harnesses' reuse
// pattern; the point itself runs with the timer stopped). Reset must
// not allocate (ci.sh greps for 0 allocs/op): every table, free list
// and map it clears is reused in place.
func BenchmarkMachineReset(b *testing.B) {
	m := New(ConfigFor(4, 4, nic.GenEISAPrototype))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		MeasureStoreLatencyOn(m, 0, 15)
		b.StartTimer()
		m.Reset()
	}
}

// TestNewAllocGate bounds what booting the 1,024-node allreduce machine
// (32x32 EISA, 3,070 pages a node, two partitions) allocates. Boot
// state is built on first touch — NIPT chunks, cache lines, kernel ring
// state — so a fresh machine carries what its nodes are, not what their
// memory could hold: 460 MB when the NIPT ring entries, the ring roster
// and the cache arrays were all built eagerly, 41 MB without.
func TestNewAllocGate(t *testing.T) {
	const limit = 64 << 20
	cfg := ConfigFor(32, 32, nic.GenEISAPrototype)
	cfg.MemPagesPerNode = 2*(cfg.NodeCount()-1) + 1024
	cfg.Partitions = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(cfg)
	runtime.ReadMemStats(&after)
	m.Close()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("core.New allocated %.1f MB", float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("core.New of the allreduce machine allocated %.1f MB, want <= %d MB",
			float64(got)/(1<<20), limit>>20)
	}
}
