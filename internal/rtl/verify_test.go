package rtl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rijndaelip/internal/gf256"
	"rijndaelip/internal/logic"
	"rijndaelip/internal/techmap"
)

// TestVerifyCounter formally verifies the counter design's synthesis.
func TestVerifyCounter(t *testing.T) {
	d := buildCounter(t)
	res, err := d.SynthesizeTracked(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Verify(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Proved != rep.Obligations || len(rep.Undecided) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Obligations == 0 {
		t.Fatal("no obligations found")
	}
}

// TestVerifyDetectsInjectedBug flips a LUT mask bit after synthesis and
// expects the prover to find the mismatch with a counterexample.
func TestVerifyDetectsInjectedBug(t *testing.T) {
	d := buildCounter(t)
	res, err := d.SynthesizeTracked(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.LUTs) == 0 {
		t.Fatal("no LUTs to corrupt")
	}
	res.Netlist.LUTs[0].Mask ^= 1 << 3
	_, err = res.Verify(0)
	if err == nil {
		t.Fatal("corrupted netlist passed formal verification")
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestVerifyROMDesign checks the cut-point handling: a design whose
// obligation cones pass through asynchronous ROM reads.
func TestVerifyROMDesign(t *testing.T) {
	b := NewBuilder("romver")
	g := b.Logic()
	addr := b.Input("addr", 8)
	data := b.ROM("sbox", addr, gf256.SBoxTable(), ROMAsync)
	// Mix the ROM output back into register logic.
	r := b.Reg("acc", 8)
	r.SetNext(g.XorVector(r.Q, data), logic.True)
	b.Output("acc", r.Q)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.SynthesizeTracked(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Verify(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Proved != rep.Obligations {
		t.Fatalf("report: %+v", rep)
	}
}

// TestVerifyRandomDesigns formally verifies the synthesis of random
// register-logic designs.
func TestVerifyRandomDesigns(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res, err := randomLogicDesign(t, seed).SynthesizeTracked(techmap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := res.Verify(0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Proved != rep.Obligations {
			t.Fatalf("seed %d: %+v", seed, rep)
		}
	}
}

// randomLogicDesign is a random register-logic design: 8 inputs, two
// 8-bit registers and 40 random AND/XOR/MUX nodes over them.
func randomLogicDesign(t *testing.T, seed int64) *Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand")
	g := b.Logic()
	in := b.Input("in", 8)
	regs := []*Reg{b.Reg("r0", 8), b.Reg("r1", 8)}
	pool := append(Bus{}, in...)
	pool = append(pool, regs[0].Q...)
	pool = append(pool, regs[1].Q...)
	mk := func() logic.Lit {
		a := pool[rng.Intn(len(pool))]
		bl := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			return g.And(a, bl)
		case 1:
			return g.Xor(a, bl)
		default:
			return g.Mux(a, bl, pool[rng.Intn(len(pool))])
		}
	}
	for i := 0; i < 40; i++ {
		pool = append(pool, mk())
	}
	next0 := make(Bus, 8)
	next1 := make(Bus, 8)
	for i := range next0 {
		next0[i] = pool[rng.Intn(len(pool))]
		next1[i] = pool[rng.Intn(len(pool))]
	}
	regs[0].SetNext(next0, pool[rng.Intn(len(pool))])
	regs[1].SetNext(next1, logic.True)
	b.Output("o", regs[1].Q)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestVerifySweepMatchesOracle is the differential test of the swept
// prover against OracleVerify (one whole-netlist miter per obligation).
// On every design — clean, then for each LUT once with one seeded mask bit
// flipped and once with its mask complemented — both must give the same verdict, the same proved
// count and name the same first failing obligation. The designs are
// TestVerifyRandomDesigns' register-logic designs plus random designs
// with chained asynchronous and synchronous ROMs, whose read ports are
// shared sources on both sides.
func TestVerifySweepMatchesOracle(t *testing.T) {
	var designs []*Design
	for seed := int64(0); seed < 6; seed++ {
		designs = append(designs, randomLogicDesign(t, seed))
	}
	for seed := int64(0); seed < 3; seed++ {
		designs = append(designs, randomDesign(t, rand.New(rand.NewSource(seed))))
	}
	flips, caught := 0, 0
	for di, d := range designs {
		res, err := d.SynthesizeTracked(techmap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if agreeWithOracle(t, res, fmt.Sprintf("design %d clean", di)) != nil {
			t.Fatalf("design %d: clean synthesis failed verification", di)
		}
		rng := rand.New(rand.NewSource(int64(di)))
		for i := range res.Netlist.LUTs {
			l := &res.Netlist.LUTs[i]
			all := uint16(1)<<(1<<len(l.Inputs)) - 1
			// One seeded single-bit flip, then the whole mask complemented:
			// the complement is still in the LUT's signature class.
			for _, bits := range []uint16{1 << rng.Intn(1<<len(l.Inputs)), all} {
				l.Mask ^= bits
				if agreeWithOracle(t, res, fmt.Sprintf("design %d LUT %d flip %#x", di, i, bits)) != nil {
					caught++
				}
				l.Mask ^= bits
				flips++
			}
		}
	}
	if caught == 0 {
		t.Fatalf("none of %d planted flips was caught", flips)
	}
	t.Logf("%d planted flips, %d caught by both provers", flips, caught)
}

// agreeWithOracle runs both provers on res, fails the test if they
// disagree, and returns the swept verdict's error.
func agreeWithOracle(t *testing.T, res *SynthResult, what string) error {
	t.Helper()
	got, gerr := res.Verify(0)
	want, werr := res.OracleVerify(0)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || got.Proved != want.Proved ||
		got.Obligations != want.Obligations || len(got.Undecided) != len(want.Undecided) {
		t.Errorf("%s: swept %+v, %v; oracle %+v, %v", what, got, gerr, want, werr)
	}
	return gerr
}
