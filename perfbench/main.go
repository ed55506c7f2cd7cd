// Command perfbench is the repository benchmark. It runs one named
// workload from a seed and prints, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	experiment      one Table 4 cell: sim -> windows -> train five models -> eval -> QoE
//	population      pop.Build -> JSONL spill -> incremental scaler fit -> streamed LSTM training
//	serve-prism5g   Prism5G behind serve.New(...).Handler(), idle and loaded phases
//	serve-harmonic  the same with HarmonicMean
//
// Every workload ends with its model answering forecasts through
// serve.New(...).Handler() in the same idle and loaded phases, so each
// prints all end-to-end metrics (metrics.go). The benchmark drives only
// public functions of the repository's packages, calls the handler in
// process without sockets, and times each layer from outside, around the
// calls into it.
//
// With --trace 0 the run reports end-to-end metrics with tracing off. With
// --trace 1 it alternates untraced and traced passes, records spans and
// counts at the same call boundaries, writes the spans to
// .bench_build/perfbench/ at exit and reports the per-layer metrics plus
// trace_overhead_pct.
//
// A host line (nproc, GOMAXPROCS, CPU model, Go version) precedes every
// result. The BENCH_*.json files at the repository root were recorded on a
// 1-CPU host with different harnesses; their numbers are not comparable
// with this benchmark's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir holds everything a run writes: spill files and span dumps. It
// sits in the build directory the run script already uses, inside the
// checkout.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are generated from (required, > 0)")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seed == 0:
		fmt.Fprintln(stderr, "perfbench: --seed must be positive")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	b := newBench(*seed, time.Duration(*seconds)*time.Second, *traceMode == 1, procs)
	if err := wl(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.e2e["peak_rss_mib"] = rss
	if b.traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range b.checkErrs {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %v\n", *name, e)
	}
	host, err := json.Marshal(hostInfo(procs))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "%s\n", res)
	return 0
}

// workload runs one journey into b: it sets up, measures for b.budget,
// runs its output checks and records metrics. A returned error means the
// run could not produce a result at all; failed checks go to b.check.
type workload func(b *bench) error

var workloads = map[string]workload{
	"experiment":     runExperiment,
	"population":     runPopulation,
	"serve-prism5g":  func(b *bench) error { return runServe(b, "Prism5G") },
	"serve-harmonic": func(b *bench) error { return runServe(b, "HarmonicMean") },
}

func workloadNames() []string {
	return []string{"experiment", "population", "serve-prism5g", "serve-harmonic"}
}

// bench is one run's state: its inputs, its tracer and what it measured.
type bench struct {
	seed   uint64
	budget time.Duration
	traced bool
	procs  int
	tr     *tracer

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int
	checkErrs         []error
}

func newBench(seed uint64, budget time.Duration, traced bool, procs int) *bench {
	return &bench{
		seed: seed, budget: budget, traced: traced, procs: procs,
		tr:  newTracer(),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
}

// check records a failed output check; nil passes.
func (b *bench) check(err error) {
	if err != nil {
		b.checkErrs = append(b.checkErrs, err)
	}
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final line. An end-to-end metric the workload did
// not measure is a bug and fails the run; a per-layer metric of a layer
// the workload never calls reads 0.
func (b *bench) result() ([]byte, error) {
	defs, got := endToEnd, b.e2e
	if b.traced {
		defs, got = perLayer, b.layer
	}
	res := result{Correct: len(b.checkErrs) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && !b.traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(res)
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

// setupRepeated runs a workload's set-up setupRepeats times and keeps the
// last result. A traced run traces only the last set-up; fn is told which
// one that is, so it records its layer metrics once.
func setupRepeated[T any](b *bench, fn func(traced bool) (T, error)) (T, error) {
	var out T
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		traced := b.traced && i == setupRepeats-1
		b.tr.setOn(traced)
		t0 := time.Now()
		v, err := fn(traced)
		took = append(took, time.Since(t0).Seconds())
		b.tr.setOn(false)
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		out = v
	}
	b.e2e["setup_s"] = median(took)
	return out, nil
}

// passes runs journey passes for frac of the budget, starting another
// only while it is expected to end inside the budget. A traced run
// alternates untraced and traced passes, at least one of each, so the
// trace overhead compares passes under the same host drift.
func (b *bench) passes(frac float64, pass func(traced bool) time.Duration) (plain, traced []time.Duration) {
	budget := time.Duration(float64(b.budget) * frac)
	need := 1
	if b.traced {
		need = 2
	}
	t0 := time.Now()
	for i := 0; ; i++ {
		on := b.traced && i%2 == 1
		d := pass(on)
		if on {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		if i+1 >= need && time.Since(t0)+d > budget {
			return plain, traced
		}
	}
}

// finishPasses records wall_s (untraced run) or the trace overhead and
// the runtime.* metrics of the measured section since m0 (traced run).
func (b *bench) finishPasses(plain, traced []time.Duration, m0 memSnap) {
	if !b.traced {
		b.e2e["wall_s"] = median(seconds(plain))
		return
	}
	b.layer["trace_overhead_pct"] = 100 * (median(seconds(traced))/median(seconds(plain)) - 1)
	b.recordRuntime(m0, readMem())
}
