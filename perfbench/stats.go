package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// finalLine is the shape of the last line a run prints.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize runs the workload o.runs times in child processes, one seed
// each (o.seed, o.seed+1, ...), and prints for every metric the median and
// quartiles across runs with the run count beside them, plus the spread
// (Q3-Q1)/median. Every run is reported; none is dropped or repeated.
func summarize(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	allCorrect := true
	attempted, failed := 0, 0
	for i := 0; i < o.runs; i++ {
		seed := o.seed + int64(i)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		cmd := exec.CommandContext(ctx, exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--out", o.out)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var fl finalLine
		if err := json.Unmarshal(lines[len(lines)-1], &fl); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d: bad result line: %v\n", i, err)
			return 1
		}
		allCorrect = allCorrect && fl.Correct
		attempted += fl.Attempted
		failed += fl.Failed
		for n, m := range fl.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
		fmt.Fprintf(stderr, "run %d seed %d done\n", i, seed)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "%s: %d runs, seeds %d..%d, %gs each, trace=%v\n", o.workload, o.runs, o.seed, o.seed+int64(o.runs)-1, o.seconds, o.trace)
	fmt.Fprintf(w, "%-36s %14s %14s %14s %8s %4s %s\n", "metric", "q1", "median", "q3", "spread", "n", "unit")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %14.6g %8.4f %4d %s\n", n, q1, med, q3, spread, len(values[n]), units[n])
	}
	fmt.Fprintln(w, "every run, in seed order:")
	for _, n := range names {
		fmt.Fprintf(w, "%-36s", n)
		for _, v := range values[n] {
			fmt.Fprintf(w, " %.5g", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", allCorrect, attempted, failed)
	if err := w.Flush(); err != nil {
		return 1
	}
	if !allCorrect {
		return 1
	}
	return 0
}
