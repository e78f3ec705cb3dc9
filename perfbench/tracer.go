package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies a layer boundary the benchmark wraps: a call into
// one layer's public function.
type spanName uint8

const (
	spOp       spanName = iota // one op (root)
	spSetUp                    // one set-up (root)
	spNew                      // core.New
	spReset                    // Machine.Reset
	spMap                      // msg.NewChannel, Machine.MustMap
	spProc                     // Kernel.CreateProcess, Process.AllocPages, Kernel.GrantCommandPages
	spSend                     // Channel.Send
	spRecv                     // Channel.Recv
	spDrain                    // Machine.RunUntilIdle, Machine.Settle
	spStream                   // a LockedCmpxchg / Machine.Step deliberate-update stream
	spFill                     // a Node.UserWrite32 page fill
	spTable1                   // msg.MeasureTable1
	spBaseline                 // msg.MeasureBaseline
	spLatency                  // core.MeasureStoreLatencyOn
	spAvail                    // core.MeasureAvailabilityOn
	nSpans
)

// spanInfo gives each span its name and the layer (repo module) whose
// public function it wraps. Set-up and op roots belong to the benchmark.
var spanInfo = [nSpans]struct{ name, layer string }{
	spOp:       {"op", "bench"},
	spSetUp:    {"setup", "bench"},
	spNew:      {"core.New", "core"},
	spReset:    {"core.Reset", "core"},
	spMap:      {"kernel.map", "kernel"},
	spProc:     {"kernel.process", "kernel"},
	spSend:     {"msg.Send", "msg"},
	spRecv:     {"msg.Recv", "msg"},
	spDrain:    {"sim.drain", "sim"},
	spStream:   {"sim.stream", "sim"},
	spFill:     {"core.UserWrite32", "core"},
	spTable1:   {"msg.MeasureTable1", "msg"},
	spBaseline: {"msg.MeasureBaseline", "msg"},
	spLatency:  {"core.MeasureStoreLatencyOn", "core"},
	spAvail:    {"core.MeasureAvailabilityOn", "core"},
}

// layers are the modules self time is reported for.
var layers = []string{"bench", "core", "kernel", "msg", "sim"}

// maxSpans bounds the spans kept for the span file; aggregates cover
// every span regardless.
const maxSpans = 1 << 18

// span is one recorded layer-boundary call.
type span struct {
	name       spanName
	parent     int32 // index of the enclosing kept span, -1 for a root
	op         int32 // op number, -1 for set-up spans
	start, end time.Duration
}

type openSpan struct {
	name  spanName
	idx   int32 // kept index, -1 when not kept
	start time.Duration
	child time.Duration // summed durations of direct children
}

// tracer records spans around the benchmark's calls into each layer.
// Spans nest strictly (one client goroutine), so a span's self time is
// its duration minus its direct children's. All methods are no-ops on a
// nil tracer, which is how untraced ops run the same code.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
	stack   []openSpan
	op      int32 // current op number, -1 outside ops
	ops     int32 // ops begun so far

	calls   [nSpans]int
	perCall [nSpans][]float64 // ms per call, for the per-call medians

	// Per-op accumulators, folded into the per-op series at endOp.
	curTotal [nSpans]time.Duration
	curSelf  map[string]time.Duration
	opTotal  [nSpans][]float64 // ms per op in each span name
	opSelf   map[string][]float64
	opMS     []float64

	// setUpCounts are the counts of the traced set-up's machine, for
	// metrics scoped to set-up plus one op.
	setUpCounts layerCounts
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), op: -1, curSelf: map[string]time.Duration{}, opSelf: map[string][]float64{}}
	t.spans = make([]span, 0, 4096)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) begin(n spanName) {
	if t == nil {
		return
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: n, parent: parent, op: t.op})
	} else {
		t.dropped++
	}
	start := t.now()
	if idx >= 0 {
		t.spans[idx].start = start
	}
	t.stack = append(t.stack, openSpan{name: n, idx: idx, start: start})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if top.idx >= 0 {
		t.spans[top.idx].end = now
	}
	dur := now - top.start
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += dur
	}
	t.calls[top.name]++
	switch top.name {
	case spNew, spReset, spMap:
		t.perCall[top.name] = append(t.perCall[top.name], ms(dur))
	}
	if t.op >= 0 {
		t.curTotal[top.name] += dur
		t.curSelf[spanInfo[top.name].layer] += dur - top.child
	}
}

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() {
	t.op = t.ops
	t.ops++
	t.curTotal = [nSpans]time.Duration{}
	clear(t.curSelf)
	t.begin(spOp)
}

// endOp closes the op's root span (and any span a panic left open) and
// folds the op's accumulators into the per-op series.
func (t *tracer) endOp() {
	for len(t.stack) > 0 {
		t.end()
	}
	for n := range t.curTotal {
		t.opTotal[n] = append(t.opTotal[n], ms(t.curTotal[n]))
	}
	for _, l := range layers {
		t.opSelf[l] = append(t.opSelf[l], ms(t.curSelf[l]))
	}
	t.opMS = append(t.opMS, ms(t.curTotal[spOp]))
	t.op = -1
}

// beginSetUp and endSetUp bracket a traced set-up.
func (t *tracer) beginSetUp() { t.begin(spSetUp) }

func (t *tracer) endSetUp() {
	for t != nil && len(t.stack) > 0 {
		t.end()
	}
}

// write stores the kept spans as CSV.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,layer,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d\n", i, s.parent, s.op,
			spanInfo[s.name].name, spanInfo[s.name].layer, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
