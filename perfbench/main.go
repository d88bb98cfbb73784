// Command perfbench is murphyd's benchmark. It generates a workload's
// inputs from a seed, boots the real murphyd binary on loopback, drives it
// from closed-loop clients, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of an in-process traced
// replay of the same inputs). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (perfbench/run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload hotel-triage --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 25, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
		bin     = flag.String("murphyd", ".bench_build/murphyd", "murphyd binary")
		workDir = flag.String("workdir", ".bench_build", "directory for run files and span dumps")
	)
	flag.Parse()
	// One load-generator process on at most two cores.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(config{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, bin: *bin, workDir: *workDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output or self-check failed:")
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type config struct {
	w       workload
	seed    int64
	dur     time.Duration
	trace   bool
	bin     string
	workDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// lines are the human-readable report printed before the JSON line.
	lines    []string
	problems []string
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is %v", name, v)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "FAIL "+p)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		// Unreachable: add keeps non-finite values out.
		panic(err)
	}
	fmt.Fprintln(f, string(buf))
}

// run performs one benchmark run.
func run(c config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	t0 := time.Now()
	in, err := c.w.gen(c.seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s inputs: %w", c.w.name, err)
	}
	p := c.w.plan(in)
	res.linef("workload %s seed %d: inputs generated in %.2fs (snapshot %.1f MB, %d batches, %d symptoms, %d reads, %d prefilled reports)",
		c.w.name, c.seed, time.Since(t0).Seconds(), float64(len(in.snapshot))/1e6, len(in.batches), len(in.symptoms), len(in.reads), len(in.reports))
	res.linef("provenance %s", provenance(c, p))

	dir, err := os.MkdirTemp(c.workDir, "run-"+c.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(snapPath, in.snapshot, 0o644); err != nil {
		return nil, err
	}

	un, err := runUntraced(c, in, p, dir, snapPath)
	if err != nil {
		return nil, err
	}
	un.report(c, p, res)
	if c.trace {
		tr, err := runTraced(c, in, p, un, dir)
		if err != nil {
			return nil, err
		}
		tr.report(p, un, res)
	}
	if c.trace {
		checkMetricSet(res, perLayer)
	} else {
		checkMetricSet(res, endToEnd)
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res, nil
}

// provenance describes where and how the numbers were made.
func provenance(c config, p plan) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s seed=%d seconds=%d trace=%t murphyd_flags=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, os.Getenv("PERFBENCH_SOURCE_SHA256"),
		c.seed, int(c.dur/time.Second), c.trace, strings.Join(p.flags(), " "))
}
