// Command benchpair summarises paired benchmark runs of two commits. Its
// input is the output of perfbench (perfbench/run.sh), one file per side:
// every line that is a perfbench JSON result is one run, and the i-th run
// of the base file pairs with the i-th run of the head file. Run the two
// sides alternately, so that drift on the machine falls on both.
//
// For every metric it prints each side's median and quartiles (nearest
// rank), the change of the median, the pairs the head side won (ties count
// for neither side) and the exact two-sided sign test of that split. The
// metrics' units and which direction is better come from the benchmark
// spec; a metric the spec does not name gets no wins or p.
//
// Usage:
//
//	for i in 1 2 3; do
//	    (cd base && bash perfbench/run.sh --workload W --seed 2) >> base.txt
//	    (cd head && bash perfbench/run.sh --workload W --seed 2) >> head.txt
//	done
//	benchpair -base base.txt -head head.txt -spec BENCHMARK.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"murphy/internal/stats"
)

func main() {
	var (
		basePath = flag.String("base", "", "perfbench output of the base commit's runs")
		headPath = flag.String("head", "", "perfbench output of the head commit's runs, in the same pair order")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark spec naming each metric's unit and better direction")
	)
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fatal(errors.New("both -base and -head are required"))
	}
	base, err := readRunsFile(*basePath)
	if err != nil {
		fatal(err)
	}
	head, err := readRunsFile(*headPath)
	if err != nil {
		fatal(err)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if err := summarize(os.Stdout, base, head, sp); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(1)
}

// run is one perfbench result line.
type run struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// specMetric is one metric of the benchmark spec.
type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	buf, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("read spec: %w", err)
	}
	if err := json.Unmarshal(buf, &sp); err != nil {
		return sp, fmt.Errorf("parse spec %s: %w", path, err)
	}
	return sp, nil
}

func readRunsFile(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// readRuns collects the perfbench result lines of r, skipping the human-
// readable report around them.
func readRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(text, "{") {
			continue
		}
		var rn run
		if err := json.Unmarshal([]byte(text), &rn); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if rn.Metrics == nil {
			continue // some other JSON object, not a result
		}
		runs = append(runs, rn)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, errors.New("no perfbench result lines")
	}
	return runs, nil
}

// summarize writes one table row per metric the runs report: the spec's
// end-to-end and per-layer metrics in spec order, then the rest
// alphabetically.
func summarize(w io.Writer, base, head []run, sp spec) error {
	if len(base) != len(head) {
		return fmt.Errorf("%d base runs but %d head runs: runs must pair up", len(base), len(head))
	}
	known := map[string]specMetric{}
	var names []string
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		known[m.Name] = m
		names = append(names, m.Name)
	}
	var rest []string
	for _, rn := range append(append([]run(nil), base...), head...) {
		for name, v := range rn.Metrics {
			if _, ok := known[name]; !ok {
				known[name] = specMetric{Name: name, Unit: v.Unit}
				rest = append(rest, name)
			}
		}
	}
	sort.Strings(rest)
	names = append(names, rest...)

	fmt.Fprintf(w, "%d pairs\n\n", len(base))
	fmt.Fprintln(w, "| metric | base median [q1, q3] | head median [q1, q3] | Δ median | head wins | sign p |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, name := range names {
		m := known[name]
		var bv, hv []float64
		for i := range base {
			b, okB := base[i].Metrics[name]
			h, okH := head[i].Metrics[name]
			if okB && okH {
				bv, hv = append(bv, b.Value), append(hv, h.Value)
			}
		}
		if len(bv) == 0 {
			continue
		}
		label := name
		if m.Unit != "" {
			label += " (" + m.Unit + ")"
		}
		bMed, hMed := stats.Median(bv), stats.Median(hv)
		delta := "—"
		if bMed != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(hMed-bMed)/bMed)
		}
		wins, p := "—", "—"
		if m.Better == "lower" || m.Better == "higher" {
			won, lost := 0, 0
			for i := range bv {
				switch {
				case hv[i] == bv[i]:
				case (hv[i] < bv[i]) == (m.Better == "lower"):
					won++
				default:
					lost++
				}
			}
			wins = fmt.Sprintf("%d/%d", won, len(bv))
			if ties := len(bv) - won - lost; ties > 0 {
				wins += fmt.Sprintf(" (%d tied)", ties)
			}
			p = fmt.Sprintf("%.3g", stats.SignTest(won, lost))
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n", label, quartiles(bv), quartiles(hv), delta, wins, p)
	}
	fmt.Fprintf(w, "\nfailed operations: base %s, head %s\n", failures(base), failures(head))
	return nil
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", stats.Median(xs), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75))
}

func failures(runs []run) string {
	failed, attempted := 0, 0
	for _, rn := range runs {
		failed += rn.Failed
		attempted += rn.Attempted
	}
	return fmt.Sprintf("%d of %d", failed, attempted)
}
