// Command perfbench is the repository benchmark. It drives the Rijndael IP
// reproduction from outside, through its public entry points, under one of
// four seeded workloads; checks every output it gets back; and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is repeated with spans recorded and the metrics are the per-layer ones,
// plus the tracing overhead. See README.md for the workloads, the metrics and
// the layer-to-metric map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ecb_bulk --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload ecb_bulk --seed 1 --seconds 15 --runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 15, "base length of the traffic window; each workload scales it by its share")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.IntVar(&o.runs, "runs", 0, "summary mode: run the workload this many times (seeds seed, seed+1, ...) in child processes and print median and quartiles")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory the span dump of a traced run is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if o.runs > 0 {
		return summarize(o, stdout, stderr)
	}
	res, err := runWorkload(wl, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.print(stdout)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	attempted int
	failed    int
	metrics   map[string]metric
	// samples is the sample count behind each percentile metric.
	samples map[string]int
	notes   []string
	// steal is the share of the host's CPU time its hypervisor took away
	// during the run, recorded to explain outlying runs.
	steal float64
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the human-readable report, a record line carrying the host,
// seed and run length, and the final machine-readable line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-36s %14.6g %s", n, m.Value, m.Unit)
		if k, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintln(w, line)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s\n", "failed_frac", frac, "frac")
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	rec, _ := json.Marshal(map[string]any{
		"workload":    r.workload,
		"seed":        r.seed,
		"seconds":     r.seconds,
		"trace":       r.trace,
		"failed_frac": frac,
		"samples":     r.samples,
		"host_steal":  r.steal,
		"host": map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"numcpu":     runtime.NumCPU(),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
	})
	fmt.Fprintf(w, "record %s\n", rec)
	last, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	fmt.Fprintf(w, "%s\n", last)
}
