package rijndael_test

import (
	"testing"

	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

// TestFormalSynthesisVerification SAT-proves the mapped netlist of the
// paper's core equivalent to its RTL specification, obligation by
// obligation (every register next-state function, every ROM address bit,
// every output bit). This is the formal complement of the random-vector
// post-synthesis sign-off.
func TestFormalSynthesisVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("formal proof skipped in -short mode")
	}
	for _, v := range []rijndael.Variant{rijndael.Encrypt, rijndael.Decrypt} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			core, err := rijndael.New(rijndael.Config{Variant: v, ROMStyle: rtl.ROMAsync})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Design.SynthesizeTracked(techmap.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := res.Verify(200000)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Undecided) > 0 {
				t.Errorf("%d obligations undecided under budget: %v",
					len(rep.Undecided), rep.Undecided[:min(5, len(rep.Undecided))])
			}
			if rep.Proved != rep.Obligations-len(rep.Undecided) {
				t.Fatalf("report inconsistent: %+v", rep)
			}
			t.Logf("%s: proved %d/%d obligations (%d LUTs merged, %d SAT calls)",
				v, rep.Proved, rep.Obligations, rep.Merged, rep.SATCalls)
		})
	}
}

// BenchmarkFormalVerify times the SAT sign-off of the Encrypt/async-ROM
// core's mapped netlist (the proof alone; elaboration and mapping are
// outside the timer). Part of `make bench-smoke`, so a proof-time
// regression surfaces in `make verify`.
func BenchmarkFormalVerify(b *testing.B) {
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Design.SynthesizeTracked(techmap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep rtl.VerifyReport
	for i := 0; i < b.N; i++ {
		if rep, err = res.Verify(200000); err != nil {
			b.Fatal(err)
		}
		if rep.Proved != rep.Obligations {
			b.Fatalf("proved %d/%d obligations", rep.Proved, rep.Obligations)
		}
	}
	b.ReportMetric(float64(rep.Obligations), "obligations")
	b.ReportMetric(float64(rep.Merged), "merged")
	b.ReportMetric(float64(rep.SATCalls), "satcalls")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
