// Command perfbench is the repository benchmark for the SHRIMP simulator.
// One run drives one named workload as a closed loop (one client, the
// next op only after the previous one completed), checks the simulated
// outputs of every op, and prints its metrics by name with their units.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it alternates untraced ops with traced ones, wraps the calls into each
// layer's public functions in spans kept in memory, and reports the
// per-layer metrics plus the tracing overhead. README.md lists the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// Every other line is a human-readable report; the same numbers, with
// sample counts, quartiles and the run environment, are written to
// .bench_out/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// unmeasured is the value reported for a metric the run could not
// measure: the layer is not reachable from outside on this workload, or
// a per-call figure had no calls. It is never an estimate.
const unmeasured = -1

// workload is one benchmark workload. A run calls setUp one or more
// times (drop releases the previous state before the next call), then
// op in a loop; tr is nil for untraced calls.
type workload interface {
	setUp(tr *tracer) error
	op(tr *tracer) (opOut, error)
	drop()
	// setUpReps is how many times an untraced run sets up; the median
	// is setup_s.
	setUpReps() int
	// finish runs after the traced loop and adds workload-specific
	// per-layer metrics to lm.
	finish(tr *tracer, lm *layerMetrics) error
}

// opOut is what one op reports besides its check result.
type opOut struct {
	simUS  float64      // simulated µs the op's results cover
	counts *layerCounts // traced ops only: exact per-layer counts
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "paper":
		return newPaper(), nil
	case "allreduce":
		return newAllreduce(seed), nil
	case "faults":
		return newFaults(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, allreduce or faults)", name)
}

func main() {
	name := flag.String("workload", "", "workload: paper, allreduce or faults")
	seed := flag.Uint64("seed", 1, "workload seed (payload bytes, fault-injector seed)")
	seconds := flag.Int("seconds", 30, "measured seconds of ops")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	digests := flag.Int("fault-digests", 0, "print the faults workload's result digests for seeds 0..n-1 and exit")
	flag.Parse()

	if *digests > 0 {
		if err := printFaultDigests(*digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := newWorkload(*name, *seed)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *name, *seed, dur)
	} else {
		res, err = runPlain(w, *name, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if err := res.save(filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Note    string  `json:"note,omitempty"`
	// Table marks a metric reported in the table and the report file
	// but kept off the result line, so no bound gates it.
	Table bool `json:"table_only,omitempty"`
}

// env is the run environment reported with every result; comparisons
// are only valid on like hardware.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Partitions int    `json:"partitions"`
}

func hostEnv(workload string) env {
	parts := 1
	if workload == "allreduce" {
		parts = allreducePartitions
	}
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Partitions: parts,
	}
}

// result is one run's outcome.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Traced    bool      `json:"traced"`
	Env       env       `json:"env"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   []metric  `json:"metrics"`
	OpMS      []float64 `json:"op_ms"`
	SetupS    []float64 `json:"setup_s,omitempty"`
	Spans     string    `json:"spans_file,omitempty"`
	// SpansDropped counts spans beyond the kept ones; they are in the
	// aggregates but not in the spans file.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

func (r *result) add(m metric) { r.Metrics = append(r.Metrics, m) }

// fail records one failed op; the first few messages are kept.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func (r *result) print(f *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "perfbench %s (%s), seed %d\n", r.Workload, mode, r.Seed)
	fmt.Fprintf(f, "env: nproc=%d gomaxprocs=%d go=%s %s partitions=%d\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.OSArch, r.Env.Partitions)
	fmt.Fprintf(f, "ops: %d attempted, %d failed (fail_ratio %.4g)\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "  failure: %s\n", msg)
	}
	for _, m := range r.Metrics {
		v := strconv.FormatFloat(m.Value, 'g', 8, 64)
		if m.Value == unmeasured {
			v = "unmeasured"
		}
		fmt.Fprintf(f, "  %-28s %16s %-6s n=%-6d %s\n", m.Name, v, m.Unit, m.Samples, m.Note)
	}
}

func (r *result) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

func (r *result) line() resultLine {
	l := resultLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]lineMetric, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		if !m.Table {
			l.Metrics[m.Name] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return l
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
