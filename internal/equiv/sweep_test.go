package equiv

import (
	"testing"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
)

// sweepFixture is y = !(a & b) & c as an AIG, and as two LUTs: a NAND whose
// net carries the complement of AIG node a&b, feeding an AND with c.
func sweepFixture(t *testing.T) (aig *logic.Net, x, y logic.Lit, nl *netlist.Netlist, nand, and netlist.NetID, sw *Sweeper) {
	t.Helper()
	aig = logic.New()
	a, b, c := aig.Input(), aig.Input(), aig.Input()
	x = aig.And(a, b)
	y = aig.And(logic.Not(x), c)

	nl = netlist.New("fixture")
	in := nl.AddInput("in", 3)
	nand, and = nl.NewNet(), nl.NewNet()
	nl.AddLUT(netlist.LUT{Inputs: []netlist.NetID{in[0], in[1]}, Mask: 0b0111, Out: nand})
	nl.AddLUT(netlist.LUT{Inputs: []netlist.NetID{nand, in[2]}, Mask: 0b1000, Out: and})
	nl.AddOutput("y", []netlist.NetID{and})
	sw, err := NewSweeper(aig, []logic.Lit{y}, nl, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	return
}

// TestSweepCutThroughComplementedClass: the AND LUT's input net is proven
// equal to the complement of an AIG node; the cut-point check must honour
// that polarity and prove both LUTs without a solver call.
func TestSweepCutThroughComplementedClass(t *testing.T) {
	_, x, y, _, nand, and, sw := sweepFixture(t)
	if sw.Merged != 2 || sw.SATCalls != 0 {
		t.Fatalf("merged %d LUTs with %d SAT calls, want 2 and 0", sw.Merged, sw.SATCalls)
	}
	if v := sw.Prove(y, and, 0); v != Equal || sw.SATCalls != 0 {
		t.Fatalf("root y: %v after %d SAT calls, want Equal and no call", v, sw.SATCalls)
	}
	if v := sw.Prove(logic.Not(x), nand, 0); v != Equal || sw.SATCalls != 0 {
		t.Fatalf("root !x: %v after %d SAT calls, want Equal and no call", v, sw.SATCalls)
	}
}

// TestSweepRootPolarity: a class proven for the complement of a root must
// not close the root; the full miter has to find the counterexample.
func TestSweepRootPolarity(t *testing.T) {
	_, x, y, _, nand, and, sw := sweepFixture(t)
	if v := sw.Prove(x, nand, 0); v != NotEqual {
		t.Fatalf("x against its complement: %v", v)
	}
	if v := sw.Prove(logic.Not(y), and, 0); v != NotEqual {
		t.Fatalf("!y against y: %v", v)
	}
}

// TestSweepNeverMergesWrongLUT: a LUT whose function is not in the AIG
// stays unmerged, and so does every LUT it feeds, even when the fed LUT's
// own mask is right.
func TestSweepNeverMergesWrongLUT(t *testing.T) {
	aig, _, y, nl, nand, and, _ := sweepFixture(t)
	nl.LUTs[0].Mask = 0b0110 // XOR, not NAND
	sw, err := NewSweeper(aig, []logic.Lit{y}, nl, nl.Inputs[0].Nets, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sw.netLit[nand] != noLit || sw.netLit[and] != noLit {
		t.Fatalf("merged past a wrong LUT: %v %v", sw.netLit[nand], sw.netLit[and])
	}
	if v := sw.Prove(y, and, 0); v != NotEqual {
		t.Fatalf("root y over a wrong LUT: %v", v)
	}
}

func TestLUTWord(t *testing.T) {
	a, b := projections[0], projections[1]
	for mask := uint16(0); mask < 16; mask++ {
		var want uint64
		for lane := 0; lane < 64; lane++ {
			idx := int(a>>lane&1) | int(b>>lane&1)<<1
			want |= uint64(mask>>idx&1) << lane
		}
		if got := lutWord(mask, []uint64{a, b}); got != want {
			t.Errorf("mask %04b: got %#x want %#x", mask, got, want)
		}
	}
}
