package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// safeOp runs one op, turning a panic inside the simulator into a
// failed op.
func safeOp(w workload, tr *tracer) (out opOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return w.op(tr)
}

// runPlain is the untraced run: it reports the end-to-end metrics.
func runPlain(w workload, name string, seed uint64, dur time.Duration) (*result, error) {
	r := &result{Workload: name, Seed: seed, Env: hostEnv(name)}
	for i := 0; i < w.setUpReps(); i++ {
		if i > 0 {
			w.drop()
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		if err := w.setUp(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	defer w.drop()

	// One untimed, checked op lets the program's caches fill and lazy
	// set-up finish before timing.
	r.Attempted++
	if _, err := safeOp(w, nil); err != nil {
		r.fail(err)
	}
	runtime.GC()

	var allocs []float64
	var simUS, opSec float64
	var ms0, ms1 runtime.MemStats
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		out, err := safeOp(w, nil)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		r.Attempted++
		if err != nil {
			r.fail(err)
		}
		r.OpMS = append(r.OpMS, ms(d))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		simUS += out.simUS
		opSec += d.Seconds()
	}
	if len(r.OpMS) == 0 {
		return nil, fmt.Errorf("no op completed within %v", dur)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	n := len(r.OpMS)
	r.add(summary("setup_s", r.SetupS, 0.5, "s", "median of the run's set-ups"))
	r.add(summary("op_ms.p50", r.OpMS, 0.5, "ms", ""))
	// The p90 follows the host's bursts of contention more than the
	// simulator, and the simulated time per op depends on the seed on
	// faults (the drop pattern sets how long recovery takes), so these
	// two spread beyond any bound across runs and stay off the result
	// line (README.md).
	p90 := summary("op_ms.p90", r.OpMS, 0.9, "ms", "")
	p90.Table = true
	if beyond := n - int(0.9*float64(n)); beyond < 10 {
		p90.Note = fmt.Sprintf("only %d ops beyond p90", beyond)
	}
	r.add(p90)
	r.add(metric{Name: "sim_us_per_s", Value: simUS / opSec, Unit: "us/s", Samples: n, Table: true})
	r.add(summary("allocs_per_op", allocs, 0.5, "count", "median over ops"))
	r.add(metric{Name: "rss_peak_mb", Value: rss, Unit: "MB", Samples: 1})
	r.add(metric{Name: "ok_ratio", Value: float64(r.Attempted-r.Failed) / float64(r.Attempted), Unit: "ratio",
		Samples: r.Attempted, Note: fmt.Sprintf("fail_ratio %g", float64(r.Failed)/float64(r.Attempted))})
	return r, nil
}

// runTraced is the traced run: one traced set-up, then untraced and
// traced ops alternate for the run's duration. It reports the per-layer
// metrics and the tracing overhead; the untraced ops give the baseline
// of that overhead and the Go runtime figures.
func runTraced(w workload, name string, seed uint64, dur time.Duration) (*result, error) {
	r := &result{Workload: name, Seed: seed, Traced: true, Env: hostEnv(name)}
	tr := newTracer()
	runtime.GC()
	t0 := time.Now()
	if err := w.setUp(tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	defer w.drop()

	r.Attempted++
	if _, err := safeOp(w, nil); err != nil {
		r.fail(err)
	}
	runtime.GC()

	var counts *layerCounts
	var varied int
	var gcCycles, gcPauseNS uint64
	var ms0, ms1 runtime.MemStats
	var plainMS []float64
	for i, deadline := 0, time.Now().Add(dur); time.Now().Before(deadline); i++ {
		r.Attempted++
		if i%2 == 0 {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			_, err := safeOp(w, nil)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				r.fail(err)
			}
			plainMS = append(plainMS, ms(d))
			gcCycles += uint64(ms1.NumGC - ms0.NumGC)
			gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
			continue
		}
		tr.beginOp()
		out, err := safeOp(w, tr)
		tr.endOp()
		if err != nil {
			r.fail(err)
		}
		switch {
		case out.counts == nil:
		case counts == nil:
			counts = out.counts
		case *out.counts != *counts:
			varied++
		}
	}
	if counts == nil || len(plainMS) == 0 {
		return nil, fmt.Errorf("no traced op completed within %v", dur)
	}
	r.OpMS = tr.opMS

	lm := layerMetricsFrom(tr, counts)
	if varied > 0 {
		lm.note("sim.events", fmt.Sprintf("counts differed from the first traced op in %d ops", varied))
	}
	nPlain := float64(len(plainMS))
	lm.set("go.gc_cycles", float64(gcCycles)/nPlain, "count", len(plainMS), "per untraced op")
	lm.set("go.gc_pause_ms", float64(gcPauseNS)/1e6/nPlain, "ms", len(plainMS), "per untraced op")
	plain := quantile(plainMS, 0.5)
	traced := quantile(tr.opMS, 0.5)
	lm.set("trace.plain_op_ms.p50", plain, "ms", len(plainMS), "untraced ops of this run")
	lm.set("trace.op_ms.p50", traced, "ms", len(tr.opMS), "traced ops of this run")
	lm.set("trace.overhead_pct", 100*(traced/plain-1), "%", len(tr.opMS), "traced p50 over untraced p50")
	if err := w.finish(tr, lm); err != nil {
		return nil, err
	}
	r.Spans = filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.csv", name, seed))
	r.SpansDropped = tr.dropped
	if err := tr.write(r.Spans); err != nil {
		return nil, err
	}
	r.Metrics = lm.ordered()
	return r, nil
}

// layerMetrics collects the per-layer metrics of a traced run.
type layerMetrics struct{ byName map[string]metric }

func (lm *layerMetrics) set(name string, v float64, unit string, samples int, note string) {
	lm.byName[name] = metric{Name: name, Value: v, Unit: unit, Samples: samples, Note: note}
}

func (lm *layerMetrics) note(name, note string) {
	m := lm.byName[name]
	m.Note = note
	lm.byName[name] = m
}

// ordered returns the metrics in perLayerNames order; a name no code
// path set is reported as unmeasured.
func (lm *layerMetrics) ordered() []metric {
	out := make([]metric, 0, len(perLayerNames))
	for _, n := range perLayerNames {
		m, ok := lm.byName[n.name]
		if !ok {
			m = metric{Name: n.name, Value: unmeasured, Unit: n.unit, Note: "not set"}
		}
		out = append(out, m)
	}
	return out
}

// perLayerNames is every per-layer metric, in report order, with its
// unit. BENCHMARK.json lists the same names.
var perLayerNames = []struct{ name, unit string }{
	{"core.new_ms", "ms"}, {"core.reset_ms", "ms"}, {"core.self_ms", "ms"},
	{"kernel.map_ms", "ms"}, {"kernel.maps", "count"}, {"kernel.ring_records", "count"},
	{"kernel.peer_maps_torn", "count"}, {"kernel.self_ms", "ms"},
	{"msg.send_ms", "ms"}, {"msg.recv_ms", "ms"}, {"msg.bytes", "bytes"}, {"msg.self_ms", "ms"},
	{"sim.events", "count"}, {"sim.drain_ms", "ms"}, {"sim.ns_per_event", "ns"},
	{"sim.max_pending", "count"}, {"sim.cluster_extra_events", "count"}, {"sim.self_ms", "ms"},
	{"isa.instructions", "count"}, {"isa.instr_per_s", "1/s"}, {"isa.trace_hit_ratio", "ratio"},
	{"cache.load_hits", "count"}, {"cache.load_misses", "count"}, {"bus.txns", "count"},
	{"nic.packets_out", "count"}, {"nic.packets_in", "count"}, {"nic.dma_transfers", "count"},
	{"nic.dma_accept_ratio", "ratio"}, {"nic.retransmits", "count"}, {"nic.acks", "count"},
	{"nic.useful_ratio", "ratio"},
	{"mesh.worms", "count"}, {"mesh.flit_hops", "count"}, {"mesh.parked", "count"},
	{"mesh.avg_latency_ns", "ns"},
	{"obs.recorder_samples", "count"},
	{"fault.drops", "count"}, {"fault.peer_downs", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"bench.self_ms", "ms"},
	{"trace.plain_op_ms.p50", "ms"}, {"trace.op_ms.p50", "ms"}, {"trace.overhead_pct", "%"},
}

// layerMetricsFrom derives the per-layer metrics common to all workloads
// from the spans and the first traced op's counts.
func layerMetricsFrom(tr *tracer, c *layerCounts) *layerMetrics {
	lm := &layerMetrics{byName: map[string]metric{}}
	ops := len(tr.opMS)
	perCall := func(name string, s spanName, what string) {
		if v := tr.perCall[s]; len(v) > 0 {
			lm.set(name, quantile(v, 0.5), "ms", len(v), "median per "+what)
		} else {
			lm.set(name, unmeasured, "ms", 0, "no "+what+" calls")
		}
	}
	perOp := func(name string, s spanName, what string) {
		lm.set(name, quantile(tr.opTotal[s], 0.5), "ms", ops, "median per op in "+what)
	}
	count := func(name string, v uint64, note string) {
		lm.set(name, float64(v), "count", 1, note)
	}
	ratio := func(name string, num, den uint64, note string) {
		if den == 0 {
			lm.set(name, unmeasured, "ratio", 0, "no attempts")
			return
		}
		lm.set(name, float64(num)/float64(den), "ratio", 1, note)
	}

	perCall("core.new_ms", spNew, "core.New")
	perCall("core.reset_ms", spReset, "Machine.Reset")
	perCall("kernel.map_ms", spMap, "map")
	perOp("msg.send_ms", spSend, "Channel.Send")
	perOp("msg.recv_ms", spRecv, "Channel.Recv")
	perOp("sim.drain_ms", spDrain, "RunUntilIdle/Settle")
	for _, l := range layers {
		lm.set(l+".self_ms", quantile(tr.opSelf[l], 0.5), "ms", ops, "median self time per op")
	}

	count("kernel.maps", c.kernelMaps+tr.setUpCounts.kernelMaps, "set-up + one op")
	count("kernel.ring_records", c.ringRecords+tr.setUpCounts.ringRecords, "set-up + one op")
	count("kernel.peer_maps_torn", c.peerMapsTorn, "per op")
	lm.set("msg.bytes", float64(c.msgBytes), "bytes", 1, "per op")
	count("sim.events", c.events, "per op, on reachable machines")
	// Host time per event: the op's time on machines the benchmark
	// reaches (the E1/E4 harness spans excluded) over their events.
	reach := make([]float64, ops)
	for i := range reach {
		reach[i] = tr.opTotal[spOp][i] - tr.opTotal[spTable1][i] - tr.opTotal[spBaseline][i]
	}
	if c.events > 0 {
		lm.set("sim.ns_per_event", quantile(reach, 0.5)*1e6/float64(c.events), "ns", ops, "median op time on reachable machines / events")
	} else {
		lm.set("sim.ns_per_event", unmeasured, "ns", 0, "no events")
	}
	count("sim.max_pending", uint64(c.maxPending), "deepest engine queue")
	count("sim.cluster_extra_events", 0, "sequential engine")
	count("isa.instructions", c.instructions, "per op")
	lm.set("isa.instr_per_s", float64(c.instructions)/(quantile(reach, 0.5)/1e3), "1/s", ops, "per op on reachable machines")
	ratio("isa.trace_hit_ratio", c.traceHits, c.traceHits+c.traceMisses, "trace-cache hits / lookups")
	count("cache.load_hits", c.loadHits, "per op")
	count("cache.load_misses", c.loadMisses, "per op")
	count("bus.txns", c.busTxns, "Xpress transactions per op")
	count("nic.packets_out", c.pktsOut, "per op")
	count("nic.packets_in", c.pktsIn, "per op")
	count("nic.dma_transfers", c.dmaTransfers, "per op")
	ratio("nic.dma_accept_ratio", c.dmaTransfers, c.dmaTransfers+c.dmaRejected, "transfers / (transfers + rejected CMPXCHGs)")
	count("nic.retransmits", c.retransmits, "per op")
	count("nic.acks", c.acks, "per op")
	ratio("nic.useful_ratio", c.pktsOut-c.retransmits-c.acks-c.nacks, c.pktsOut, "data packets / all packets sent")
	count("mesh.worms", c.worms, "per op")
	count("mesh.flit_hops", c.flitHops, "per op")
	count("mesh.parked", c.parked, "per op")
	if c.delivered > 0 {
		lm.set("mesh.avg_latency_ns", c.meshLatency.Nanoseconds()/float64(c.delivered), "ns", int(c.delivered), "simulated, per delivered worm")
	} else {
		lm.set("mesh.avg_latency_ns", unmeasured, "ns", 0, "no worms delivered")
	}
	count("obs.recorder_samples", c.recorderSamples, "per op")
	count("fault.drops", c.faultDrops, "per op")
	count("fault.peer_downs", c.peerDowns, "per op")
	return lm
}

// quantile interpolates linearly between the closest ranks of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary reports quantile q of v with its quartiles and sample count.
func summary(name string, v []float64, q float64, unit, note string) metric {
	return metric{Name: name, Value: quantile(v, q), Unit: unit, Samples: len(v),
		Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), Note: note}
}
