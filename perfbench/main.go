// Command perfbench is the repository benchmark: it drives the public
// realhf API (Planner, the plan server over loopback HTTP, Trainer) on
// seeded workloads, checks every output, and prints the metrics named in
// BENCHMARK.json. See README.md in this directory.
//
//	perfbench --workload cold-solve --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the lines before
// it are a human-readable summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

var ctxBG = context.Background()

// options are one run's settings.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Small shrinks every input (popular set, campaign, setup repetitions)
	// for the smoke test.
	Small bool
	// Dir is the run's scratch directory (checkpoints, the Chrome trace).
	Dir string
}

// metrics maps metric names to values; units come from the catalogue.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// outcome is what a workload run hands back to main.
type outcome struct {
	Attempted, Failed int64
	// Failures counts failed ops by cause; every failure is counted, none
	// is filtered out.
	Failures map[string]int64
	// Invalid lists reasons the run's measurements cannot be trusted (a
	// determinism check failed, the load generator fell behind).
	Invalid []string
	Metrics metrics
	Trace   *traceSummary
	// Notes are extra summary lines.
	Notes []string
}

func newOutcome() *outcome {
	return &outcome{Failures: map[string]int64{}, Metrics: metrics{}}
}

// fail counts one failed op under cause.
func (o *outcome) fail(cause string) {
	o.Failed++
	o.Failures[cause]++
}

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *outcome) error{
	"cold-solve":       runColdSolve,
	"serve-mixed":      runServeMixed,
	"trainer-campaign": runTrainerCampaign,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and returns its result, writing the summary
// lines to log.
func execute(opt options, log io.Writer) (*result, error) {
	out, err := runWorkload(opt)
	if err != nil {
		return nil, err
	}
	res, err := buildResult(opt, out)
	if err != nil {
		return nil, err
	}
	printSummary(log, opt, out, res)
	return res, nil
}

// runWorkload runs opt's workload and returns what it measured.
func runWorkload(opt options) (*outcome, error) {
	run, ok := workloads[opt.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.Workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	out := newOutcome()
	if err := run(opt, out); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.Workload, err)
	}
	return out, nil
}

// buildResult selects the run's catalogue of metrics and attaches units.
// A metric the run did not measure is an error, never a silent gap.
func buildResult(opt options, out *outcome) (*result, error) {
	catalogue := endToEnd
	if opt.Trace {
		catalogue = perLayer
	}
	res := &result{Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	for _, d := range catalogue {
		v, ok := out.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", opt.Workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", opt.Workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = out.Failed == 0 && len(out.Invalid) == 0 && out.Attempted > 0
	return res, nil
}

// printSummary writes the human-readable lines that precede the result.
func printSummary(log io.Writer, opt options, out *outcome, res *result) {
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v\n", opt.Workload, opt.Seed, opt.Seconds, opt.Trace)
	for _, n := range out.Notes {
		fmt.Fprintln(log, "  "+n)
	}
	fmt.Fprintf(log, "  attempted %d failed %d fail_frac %.4f\n", out.Attempted, out.Failed, float64(out.Failed)/math.Max(1, float64(out.Attempted)))
	for _, cause := range sortedKeys(out.Failures) {
		fmt.Fprintf(log, "  failure: %s x%d\n", cause, out.Failures[cause])
	}
	for _, why := range out.Invalid {
		fmt.Fprintf(log, "  INVALID: %s\n", why)
	}
	if t := out.Trace; t != nil {
		fmt.Fprintf(log, "  traced ops %d, layer coverage %.4f of op wall time, %.1f spans/op\n", t.Ops, t.Coverage, t.SpansPerOp)
		for _, layer := range append([]string{benchLayer}, tracedLayers...) {
			fmt.Fprintf(log, "    self %-10s %10.4f ms/op  %.4f of op time\n", layer, t.SelfPerOpMS[layer], t.selfFrac(layer))
		}
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(log, "  %-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.Workload, "workload", "", "workload: cold-solve, serve-mixed or trainer-campaign")
	flag.Int64Var(&opt.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&opt.Seconds, "seconds", 20, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()
	opt.Trace = trace == 1
	opt.Dir = filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", opt.Workload, opt.Seed, os.Getpid()))

	start := time.Now()
	res, err := execute(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !opt.Trace {
		// Only the traced run keeps its scratch directory (the Chrome trace).
		if err := os.RemoveAll(opt.Dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	fmt.Printf("  run took %.1fs\n", time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
