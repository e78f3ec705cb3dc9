package main

import (
	"testing"
	"time"
)

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.beginOp()
	tr.begin(spSend)
	time.Sleep(2 * time.Millisecond)
	tr.begin(spDrain)
	time.Sleep(3 * time.Millisecond)
	tr.end()
	tr.end()
	tr.endOp()

	send, drain := tr.opTotal[spSend][0], tr.opTotal[spDrain][0]
	if send < drain+2 || drain < 3 {
		t.Fatalf("span totals send=%.2fms drain=%.2fms, want send >= drain+2 and drain >= 3", send, drain)
	}
	// msg's self time excludes its child sim span; sim's is all of it.
	if self := tr.opSelf["msg"][0]; self < 2 || self > send-drain+0.01 {
		t.Fatalf("msg self time %.2fms, want send-drain = %.2fms", self, send-drain)
	}
	if self := tr.opSelf["sim"][0]; self != drain {
		t.Fatalf("sim self time %.2fms, want %.2fms", self, drain)
	}
	if len(tr.spans) != 3 || tr.spans[2].parent != 1 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Fatalf("span parents wrong: %+v", tr.spans)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	tr.beginSetUp()
	tr.begin(spNew)
	tr.end()
	tr.endSetUp()
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(v, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if v[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
