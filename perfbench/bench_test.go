package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"rijndaelip/internal/aes"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 1, 7, 3.3, 9, 4}, [3]float64{2.125, 3.65, 7.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

// TestCheckerReportsPlantedCorruption plants corrupted outputs and shows
// that every checker counts them instead of passing or aborting.
func TestCheckerReportsPlantedCorruption(t *testing.T) {
	ref, err := aes.NewCipher(bytes.Repeat([]byte{7}, 16))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i, name := range workloadNames() {
		for _, o := range workloads[name].gen(rng, 37*i) {
			if err := expect(ref, &o); err != nil {
				t.Fatal(err)
			}
			got := append([]byte(nil), o.want...)
			if n := mismatches(got, o.want, nil); n != 0 {
				t.Fatalf("%s %s: clean output reported %d mismatches", name, o.mode, n)
			}
			got[len(got)-1] ^= 0x80
			if n := mismatches(got, o.want, nil); n != 1 {
				t.Errorf("%s %s: one corrupted block reported as %d", name, o.mode, n)
			}
			if n := mismatches(o.want, o.want, errors.New("engine failed")); n != o.blocks() {
				t.Errorf("%s %s: failed call counted %d of %d blocks", name, o.mode, n, o.blocks())
			}
			// The replayed core transactions must reproduce the mode's
			// reference output block for block.
			for _, tx := range coreTxns(ref, &o) {
				for i, in := range tx.in {
					back := make([]byte, 16)
					if tx.encrypt {
						ref.Decrypt(back, tx.want[i])
					} else {
						ref.Encrypt(back, tx.want[i])
					}
					if !bytes.Equal(back, in) {
						t.Fatalf("%s %s: replay transaction does not match its reference", name, o.mode)
					}
				}
			}
		}
	}

	r := &runner{res: &result{metrics: map[string]metric{}, samples: map[string]int{}}}
	if err := json.Unmarshal(table2Golden, &r.golden); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.golden {
		r.checkCell(c)
	}
	if r.res.failed != 0 || r.res.attempted != len(r.golden) {
		t.Fatalf("reference cells: %d failed of %d", r.res.failed, r.res.attempted)
	}
	bad := r.golden[2]
	bad.ClkNS *= 1.0000001
	r.checkCell(bad)
	if r.res.failed != 1 {
		t.Errorf("corrupted Table 2 cell not reported: failed = %d", r.res.failed)
	}
}

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each declared metric appears with its unit and that no
// output failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, including its SAT proof")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			want := sp.EndToEnd
			if trace == "1" {
				want = sp.PerLayer
			}
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "5", "--seconds", "0.3", "--trace", trace, "--out", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var fl finalLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", name, trace, err)
			}
			if !fl.Correct || fl.Failed != 0 || fl.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", name, trace, fl.Correct, fl.Failed, fl.Attempted)
			}
			if !strings.Contains(out.String(), "failed_frac ") {
				t.Errorf("%s trace=%s: failed_frac not printed", name, trace)
			}
			if len(fl.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", name, trace, len(fl.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := fl.Metrics[m.Name]
				switch {
				case !valid.MatchString(m.Name):
					t.Errorf("metric name %q is not valid", m.Name)
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
