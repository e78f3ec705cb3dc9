package core

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
)

// BenchmarkUserReadBytes measures the host read path a Go-API channel's
// Recv takes: 1 KB out of a two-page receive buffer that a sender's
// buffer maps onto, through the micro-TLB and cache.LoadBytes. It must
// not allocate (ci.sh greps for 0 allocs/op).
func BenchmarkUserReadBytes(b *testing.B) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	src, dst := m.Node(0), m.Node(1)
	ps, pd := src.K.CreateProcess(), dst.K.CreateProcess()
	sendVA, err := ps.AllocPages(2)
	if err != nil {
		b.Fatal(err)
	}
	recvVA, err := pd.AllocPages(2)
	if err != nil {
		b.Fatal(err)
	}
	m.MustMap(ps, sendVA, 2*phys.PageSize, dst.ID, pd.PID, recvVA, nipt.BlockedWriteAU)
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	if err := src.UserWriteBytes(ps, sendVA, msg); err != nil {
		b.Fatal(err)
	}
	if err := m.RunUntilIdle(1_000_000); err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(msg))
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.UserReadBytes(pd, recvVA, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if string(out) != string(msg) {
		b.Fatal("read back the wrong bytes")
	}
}

// BenchmarkUserWriteBytes measures the host store path a Go-API
// channel's Send takes: 1 KB into a two-page send buffer mapped
// blocked-write onto another node, each word snooped, merged into
// packets and carried across the mesh while the run advances time. It
// must not allocate (ci.sh greps for 0 allocs/op).
func BenchmarkUserWriteBytes(b *testing.B) {
	benchUserWriteBytes(b, ConfigFor(2, 1, nic.GenEISAPrototype))
}

// BenchmarkPartitionedUserWriteBytes is BenchmarkUserWriteBytes in the
// allreduce benchmark's shape: two partitions, with the sender and the
// receiver on different ones, so every span's horizon spans both
// partition engines and the hub. It must not allocate either.
func BenchmarkPartitionedUserWriteBytes(b *testing.B) {
	cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.Partitions = 2
	benchUserWriteBytes(b, cfg)
}

func benchUserWriteBytes(b *testing.B, cfg Config) {
	m := New(cfg)
	defer m.Close()
	src, dst := m.Node(0), m.Node(1)
	if m.Clu != nil && m.PartOf[0] == m.PartOf[1] {
		b.Fatal("sender and receiver share a partition")
	}
	ps, pd := src.K.CreateProcess(), dst.K.CreateProcess()
	sendVA, err := ps.AllocPages(2)
	if err != nil {
		b.Fatal(err)
	}
	recvVA, err := pd.AllocPages(2)
	if err != nil {
		b.Fatal(err)
	}
	m.MustMap(ps, sendVA, 2*phys.PageSize, dst.ID, pd.PID, recvVA, nipt.BlockedWriteAU)
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.UserWriteBytes(ps, sendVA, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := m.RunUntilIdle(uint64(b.N) * 100_000); err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(msg))
	if err := dst.UserReadBytes(pd, recvVA, out); err != nil {
		b.Fatal(err)
	}
	if string(out) != string(msg) {
		b.Fatal("the receiver holds the wrong bytes")
	}
}
