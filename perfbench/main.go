// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit; the last line of its output is one
// JSON object for tools that collect results:
//
//	perfbench --workload paper-wave --seed 1 --seconds 20 --trace 0
//
// --trace 1 runs every measured cycle twice in a row on the same input,
// untraced and then traced (spans around every call into the program plus
// per-phase CPU profiles), and reports the per-layer metrics and the
// tracing overhead between the twins.
// --steady N runs every workload N times with different seeds and prints
// each end-to-end metric's spread next to its bound in BENCHMARK.json.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// opts are one measurement's inputs.
type opts struct {
	seed    int64
	seconds float64
	tr      *tracer // nil: untraced
}

// report is one measurement's outcome.
type report struct {
	ops      []opCount
	e2e      map[string]float64
	extra    map[string]float64 // workload-level figures outside endToEnd
	layer    map[string]float64 // filled only when traced
	info     []string
	problems []string
}

type opCount struct {
	name              string
	attempted, failed int
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, extra: map[string]float64{}, layer: map[string]float64{}}
}

// op adds attempted and failed operations of one kind.
func (r *report) op(name string, attempted, failed int) {
	for i := range r.ops {
		if r.ops[i].name == name {
			r.ops[i].attempted += attempted
			r.ops[i].failed += failed
			return
		}
	}
	r.ops = append(r.ops, opCount{name, attempted, failed})
}

// fail records a failed output check; at most 20 are kept.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(opts) *report{
	"paper-wave": runPaperWave,
	"sim-churn":  runSimChurn,
	"tcp-grow":   runTCPGrow,
}

func main() {
	workload := flag.String("workload", "", "paper-wave, sim-churn or tcp-grow")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 0, "measured time per run (default: run_seconds in BENCHMARK.json for --steady)")
	traceFlag := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files")
	steady := flag.Int("steady", 0, "run each workload this many times and print the spreads")
	flag.Parse()

	// One processor: on a small shared machine the figures spread about
	// three times less than with the collector on a second processor.
	const procs = 1
	runtime.GOMAXPROCS(procs)

	if *steady > 0 {
		os.Exit(runSteady(*steady, *seed, *seconds, *workload))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <paper-wave|sim-churn|tcp-grow> --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d %s\n",
		*workload, *seed, *seconds, *traceFlag, procs, runtime.NumCPU(), runtime.Version())

	watchHeap()
	var rep *report
	var metrics map[string]float64
	var defs []metricDef
	if *traceFlag == 0 {
		rep = run(opts{seed: *seed, seconds: *seconds})
		metrics, defs = rep.e2e, endToEnd
	} else {
		tr := newTracer()
		rep = run(opts{seed: *seed, seconds: *seconds, tr: tr})
		tr.setPhase("")
		if tr.err != nil {
			rep.fail("traced mode: %v", tr.err)
		}
		// Workload-level figures come from the untraced twins.
		for k, v := range rep.extra {
			rep.layer[k] = v
		}
		rep.infof("tracing overhead: %+.1f%% CPU per join, median over twin cycles", rep.layer["trace.overhead_pct"])
		if err := os.MkdirAll(*out, 0o755); err != nil {
			rep.fail("span output: %v", err)
		} else {
			file := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
			if err := tr.writeSpans(file); err != nil {
				rep.fail("span output: %v", err)
			} else {
				rep.infof("spans: %d written to %s", len(tr.spans), file)
			}
		}
		metrics, defs = rep.layer, perLayer
	}
	os.Exit(emit(rep, metrics, defs))
}

// emit prints the human-readable report and the final JSON line, and
// returns the exit code: non-zero when any output check failed.
func emit(rep *report, metrics map[string]float64, defs []metricDef) int {
	attempted, failed := 0, 0
	for _, o := range rep.ops {
		fmt.Printf("ops %-8s attempted %7d failed %d\n", o.name, o.attempted, o.failed)
		attempted += o.attempted
		failed += o.failed
	}
	for _, l := range rep.info {
		fmt.Println(l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("metric %s is %v", d.name, v)
			v = 0
		}
		fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = value{v, d.unit}
	}
	if len(rep.extra) > 0 && defs[0].name == endToEnd[0].name {
		keys := make([]string, 0, len(rep.extra))
		for k := range rep.extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  (workload) %-25s %14.6g\n", k, rep.extra[k])
		}
	}
	if attempted == 0 {
		rep.fail("no operation attempted")
		attempted = 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "result:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		fmt.Fprintf(os.Stderr, "%d check(s) failed: %s\n", len(rep.problems), strings.Join(rep.problems[:1], ""))
		return 1
	}
	return 0
}
