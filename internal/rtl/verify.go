package rtl

import (
	"fmt"

	"rijndaelip/internal/equiv"
	"rijndaelip/internal/netlist"
)

// VerifyReport summarizes a formal synthesis-verification run.
type VerifyReport struct {
	Obligations int
	Proved      int
	Undecided   []string // obligations that exhausted the conflict budget
	Merged      int      // LUTs proven equal to an AIG node (LUT↔AIG classes)
	SATCalls    int      // solver calls: per-LUT candidate miters plus root miters
}

// Verify formally proves the synthesized netlist equivalent to the design:
// every register next-state/enable function, ROM address bit and output
// bit of the mapped netlist is checked against the corresponding
// specification cone over shared sources (primary inputs, register
// outputs and ROM read ports as cut points).
//
// The proof is a simulation-guided SAT sweep (see equiv.NewSweeper): LUT
// outputs are first proven equal to AIG nodes one by one, each proof local
// to the previously proven pairs; an obligation whose root is such a
// proven pair is closed, and every other one is decided by a SAT miter in
// the shared solver.
//
// budget caps SAT conflicts per obligation (0 = unlimited); obligations
// that exceed it are reported in Undecided rather than failing, since a
// timeout is not a counterexample. Any real mismatch returns an error
// naming the first failing obligation.
func (r *SynthResult) Verify(budget int64) (VerifyReport, error) {
	inputNet, err := r.inputNets()
	if err != nil {
		return VerifyReport{}, err
	}
	sw, err := equiv.NewSweeper(r.Design.b.aig, r.roots, r.Netlist, inputNet, budget)
	if err != nil {
		return VerifyReport{}, err
	}
	rep := VerifyReport{Obligations: len(r.roots), Merged: sw.Merged}
	for i, root := range r.roots {
		switch sw.Prove(root, r.rootNet[i], budget) {
		case equiv.Equal:
			rep.Proved++
		case equiv.NotEqual:
			rep.SATCalls = sw.SATCalls
			return rep, fmt.Errorf("rtl: synthesis mismatch at obligation %s", r.rootTag[i])
		case equiv.Undecided:
			rep.Undecided = append(rep.Undecided, r.rootTag[i])
		}
	}
	rep.SATCalls = sw.SATCalls
	return rep, nil
}

// inputNets maps every AIG pseudo-input ordinal to the netlist net that
// carries it: the shared sources of both sides of the proof.
func (r *SynthResult) inputNets() ([]netlist.NetID, error) {
	b := r.Design.b
	nets := make([]netlist.NetID, b.aig.NumInputs())
	for ord := range nets {
		src := b.inKind[ord]
		switch src.kind {
		case srcPI:
			nets[ord] = r.piNets[src.idx][src.bit]
		case srcReg:
			nets[ord] = r.regQ[src.idx][src.bit]
		case srcROM:
			nets[ord] = r.romOut[src.idx][src.bit]
		default:
			return nil, fmt.Errorf("rtl: unknown source kind for input %d", ord)
		}
	}
	return nets, nil
}
