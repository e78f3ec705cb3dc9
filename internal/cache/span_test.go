package cache

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/phys"
	"repro/internal/sim"
)

// spanLog is a span-capable snooper that logs every CPU write it
// observes, word by word, and the instant of the latest one. It takes
// at most limit bytes of a span, each word within window of the one
// before it.
type spanLog struct {
	eng    *sim.Engine
	limit  int
	window sim.Time
	words  []phys.PAddr
	last   sim.Time
}

func (l *spanLog) SnoopWrite(init bus.Initiator, a phys.PAddr, data []byte) {
	if init == bus.InitCPU {
		l.words = append(l.words, a)
		l.last = l.eng.Now()
	}
}

func (l *spanLog) SpanLimit(a phys.PAddr, n int, now sim.Time) (int, sim.Time) {
	return min(n, l.limit), l.window
}

func (l *spanLog) SnoopSpan(a phys.PAddr, data []byte, last sim.Time) {
	for i := 0; i < len(data); i += 4 {
		l.words = append(l.words, a+phys.PAddr(i))
	}
	l.last = last
}

type spanTwin struct {
	eng *sim.Engine
	x   *bus.Xpress
	c   *Cache
	log *spanLog
}

func newSpanTwin(limit int, window sim.Time) spanTwin {
	eng, x, c := newCache()
	log := &spanLog{eng: eng, limit: limit, window: window}
	x.AddSnooper(log)
	return spanTwin{eng, x, c, log}
}

// storeWords is the per-word reference for StoreSpan: one 4-byte Store
// per word, each issued when the one before completes, under the rules
// a span follows — stop after the word whose completion reaches
// horizon, and before a word past the page, the snooper's limit or its
// window. It advances the engine to each next word's issue instant and
// returns what StoreSpan returns.
func storeWords(tw spanTwin, a phys.PAddr, data []byte, horizon sim.Time) (n int, at, lat sim.Time) {
	room := min(len(data)&^3, int(phys.PageSize-a.Offset()), tw.log.limit)
	for t := tw.eng.Now(); t < horizon && n+4 <= room; t = at + lat {
		if n > 0 && t-at > tw.log.window {
			break
		}
		tw.eng.AdvanceTo(t)
		at = t
		lat = tw.c.Store(a+phys.PAddr(n), binary.LittleEndian.Uint32(data[n:]), 4, true)
		n += 4
	}
	return n, at, lat
}

// TestStoreSpanMatchesStores pins StoreSpan to per-word Stores on twin
// caches: random aligned starts and lengths (some running off the page),
// horizons from the first word to none, warm and cold lines, a bus
// already busy enough to stall the write buffer, and a snooper that
// limits the span by bytes or by the gap between words. Both sides must
// store the same words and report the same last word, and leave the
// same statistics, spin-probe counters, bus state, DRAM, line contents
// and LRU stamps, and snooper log.
func TestStoreSpanMatchesStores(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	hit := DefaultConfig().HitTime
	stops := map[string]int{} // why the per-word reference stopped
	for i := 0; i < 400; i++ {
		limit := []int{1 << 20, 4 * rng.Intn(64), 1 + rng.Intn(200)}[rng.Intn(3)]
		window := []sim.Time{sim.Forever, hit, hit + 30*sim.Nanosecond}[rng.Intn(3)]
		a := phys.PAddr(4 * rng.Intn(4*phys.PageSize/4))
		data := make([]byte, 4*rng.Intn(300)+rng.Intn(4))
		rng.Read(data)
		warm := rng.Intn(2) == 0
		busy := rng.Intn(40)
		start := sim.Time(rng.Intn(1000)) * sim.Nanosecond
		horizon := sim.Forever
		if rng.Intn(3) > 0 {
			horizon = start + sim.Time(rng.Intn(20000))*sim.Nanosecond
		}

		span, ref := newSpanTwin(limit, window), newSpanTwin(limit, window)
		for _, tw := range []spanTwin{span, ref} {
			tw.eng.AdvanceTo(start)
			for w := 0; w < busy; w++ { // other traffic ahead on the bus
				tw.x.Write(bus.InitNIC, 8*phys.PageSize+phys.PAddr(64*w), make([]byte, 64))
			}
			if warm {
				for off := 0; off < len(data); off += 32 {
					if b := a + phys.PAddr(off); b.Page() == a.Page() {
						tw.c.Load(b, 1)
					}
				}
			}
		}
		gotN, gotAt, gotLat := span.c.StoreSpan(a, data, horizon)
		wantN, wantAt, wantLat := storeWords(ref, a, data, horizon)
		if gotN != wantN || (wantN > 0 && (gotAt != wantAt || gotLat != wantLat)) {
			t.Fatalf("case %d: span stored %d bytes, last at %v taking %v; per-word %d, %v, %v",
				i, gotN, gotAt, gotLat, wantN, wantAt, wantLat)
		}
		if span.eng.Now() != start {
			t.Fatalf("case %d: the span moved the clock to %v", i, span.eng.Now())
		}
		requireSameSpanTwin(t, i, span, ref)
		switch room := min(len(data)&^3, int(phys.PageSize-a.Offset()), limit); {
		case wantN > 0 && wantAt+wantLat >= horizon:
			stops["horizon"]++
		case wantN == room:
			stops["room"]++
		default:
			stops["window"]++
		}
	}
	for _, why := range []string{"horizon", "room", "window"} {
		if stops[why] < 20 {
			t.Fatalf("only %d cases stopped at the %s: %v", stops[why], why, stops)
		}
	}
}

func requireSameSpanTwin(t *testing.T, i int, a, b spanTwin) {
	t.Helper()
	pa, aa := a.c.SpinProbe()
	pb, ab := b.c.SpinProbe()
	switch {
	case a.c.Stats() != b.c.Stats():
		t.Fatalf("case %d: cache stats %+v, per-word %+v", i, a.c.Stats(), b.c.Stats())
	case pa != pb || aa != ab:
		t.Fatalf("case %d: spin probe (%d,%d), per-word (%d,%d)", i, pa, aa, pb, ab)
	case a.x.Stats() != b.x.Stats() || a.x.BusyUntil() != b.x.BusyUntil():
		t.Fatalf("case %d: bus %+v busy %v, per-word %+v busy %v",
			i, a.x.Stats(), a.x.BusyUntil(), b.x.Stats(), b.x.BusyUntil())
	case a.c.clock != b.c.clock:
		t.Fatalf("case %d: LRU clock %d, per-word %d", i, a.c.clock, b.c.clock)
	case !reflect.DeepEqual(a.c.Lines(), b.c.Lines()):
		t.Fatalf("case %d: cache lines differ", i)
	case !reflect.DeepEqual(a.log.words, b.log.words) || a.log.last != b.log.last:
		t.Fatalf("case %d: snooper saw %#x last at %v, per-word %#x at %v",
			i, a.log.words, a.log.last, b.log.words, b.log.last)
	}
	for p := 0; p < a.x.Memory().Pages(); p++ {
		pa := phys.PageNum(p).Addr(0)
		if string(a.x.Memory().Read(pa, phys.PageSize)) != string(b.x.Memory().Read(pa, phys.PageSize)) {
			t.Fatalf("case %d: DRAM page %d differs", i, p)
		}
	}
}
