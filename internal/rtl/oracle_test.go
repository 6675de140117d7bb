package rtl

import (
	"fmt"

	"rijndaelip/internal/equiv"
)

// OracleVerify is the reference prover the sweep in Verify is checked
// against: one solver holding the whole LUT network and one whole-netlist
// miter per obligation, in obligation order, with no LUT↔AIG classes. It
// is slow (every miter searches the full netlist) but has no moving parts
// beyond the Tseitin encodings, so a swept verdict that disagrees with it
// is a sweep bug.
func (r *SynthResult) OracleVerify(budget int64) (VerifyReport, error) {
	inputNet, err := r.inputNets()
	if err != nil {
		return VerifyReport{}, err
	}
	aig := r.Design.b.aig
	enc := equiv.NewEncoder()
	for ord, n := range inputNet {
		enc.BindAIGInput(aig, aig.InputLit(ord), enc.BindNet(n))
	}
	if err := enc.EncodeNetlistComb(r.Netlist); err != nil {
		return VerifyReport{}, err
	}
	rep := VerifyReport{Obligations: len(r.roots)}
	for i, root := range r.roots {
		rep.SATCalls++
		switch enc.ProveEqual(enc.EncodeAIG(aig, root), enc.BindNet(r.rootNet[i]), budget) {
		case equiv.Equal:
			rep.Proved++
		case equiv.NotEqual:
			return rep, fmt.Errorf("rtl: synthesis mismatch at obligation %s", r.rootTag[i])
		case equiv.Undecided:
			rep.Undecided = append(rep.Undecided, r.rootTag[i])
		}
	}
	return rep, nil
}
