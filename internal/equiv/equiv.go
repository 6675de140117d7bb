// Package equiv provides SAT-based combinational equivalence checking
// between an And-Inverter Graph specification and a technology-mapped
// netlist implementation — the formal sign-off step of the synthesis flow
// (random simulation catches most bugs; the miter proof catches all of
// them, or produces a counterexample).
//
// Both sides are Tseitin-encoded into one CNF over shared source
// variables (primary inputs, register outputs, memory read ports as cut
// points); a specification root is proved equal to its implementation net
// by asserting the XOR miter and expecting UNSAT. Sweeper (sweep.go) first
// proves the netlist's LUTs equal to AIG nodes one at a time, so most
// roots close without a whole-netlist miter.
package equiv

import (
	"fmt"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/sat"
)

// Encoder Tseitin-encodes circuits into a SAT solver over a shared pool of
// source variables.
type Encoder struct {
	S *sat.Solver

	constTrue sat.Lit
	aigVar    map[uint32]int        // AIG node id -> solver variable
	netVar    map[netlist.NetID]int // netlist net -> solver variable
}

// NewEncoder wraps a fresh solver.
func NewEncoder() *Encoder {
	e := &Encoder{
		S:      sat.New(0),
		aigVar: map[uint32]int{},
		netVar: map[netlist.NetID]int{},
	}
	v := e.S.NewVar()
	e.constTrue = sat.MkLit(v, false)
	e.S.AddClause(e.constTrue)
	return e
}

// ConstTrue returns the always-true literal.
func (e *Encoder) ConstTrue() sat.Lit { return e.constTrue }

// BindNet assigns (or returns) the solver variable backing a netlist net.
// Use it to declare shared sources before encoding.
func (e *Encoder) BindNet(n netlist.NetID) sat.Lit {
	switch n {
	case netlist.Const0:
		return e.constTrue.Not()
	case netlist.Const1:
		return e.constTrue
	}
	v, ok := e.netVar[n]
	if !ok {
		v = e.S.NewVar()
		e.netVar[n] = v
	}
	return sat.MkLit(v, false)
}

// BindAIGInput ties an AIG input node to an existing solver literal (a
// shared source). The literal must be a positive variable reference.
func (e *Encoder) BindAIGInput(net *logic.Net, in logic.Lit, l sat.Lit) {
	if !net.IsInput(in) || in.Inverted() {
		panic("equiv: BindAIGInput needs a positive input literal")
	}
	if l.Neg() {
		panic("equiv: source literal must be positive")
	}
	e.aigVar[in.Node()] = l.Var()
}

// EncodeAIG returns the solver literal for an AIG literal, encoding its
// cone on demand. All reachable inputs must have been bound.
func (e *Encoder) EncodeAIG(net *logic.Net, l logic.Lit) sat.Lit {
	base := e.encodeAIGNode(net, l.Node())
	if l.Inverted() {
		return base.Not()
	}
	return base
}

func (e *Encoder) encodeAIGNode(net *logic.Net, id uint32) sat.Lit {
	if id == 0 {
		return e.constTrue.Not() // constant-false node
	}
	if v, ok := e.aigVar[id]; ok {
		return sat.MkLit(v, false)
	}
	if net.IsInput(logic.Lit(id << 1)) {
		panic(fmt.Sprintf("equiv: AIG input node %d not bound to a source", id))
	}
	// Encode the cone iteratively to avoid deep recursion.
	order := net.Cone([]logic.Lit{logic.Lit(id << 1)})
	for _, nid := range order {
		if _, ok := e.aigVar[nid]; ok {
			continue
		}
		if net.IsInput(logic.Lit(nid << 1)) {
			panic(fmt.Sprintf("equiv: AIG input node %d not bound to a source", nid))
		}
		f0, f1 := net.Fanins(nid)
		a := e.faninLit(f0)
		b := e.faninLit(f1)
		v := e.S.NewVar()
		e.aigVar[nid] = v
		out := sat.MkLit(v, false)
		// out <-> a & b
		e.S.AddClause(out.Not(), a)
		e.S.AddClause(out.Not(), b)
		e.S.AddClause(out, a.Not(), b.Not())
	}
	return sat.MkLit(e.aigVar[id], false)
}

// faninLit resolves a fanin literal whose node variable already exists
// (guaranteed by the topological encoding order) or is a constant.
func (e *Encoder) faninLit(l logic.Lit) sat.Lit {
	if l == logic.False {
		return e.constTrue.Not()
	}
	if l == logic.True {
		return e.constTrue
	}
	v, ok := e.aigVar[l.Node()]
	if !ok {
		panic(fmt.Sprintf("equiv: fanin node %d encoded out of order or unbound input", l.Node()))
	}
	base := sat.MkLit(v, false)
	if l.Inverted() {
		return base.Not()
	}
	return base
}

// EncodeLUT adds clauses for out <-> LUT(mask, inputs).
func (e *Encoder) EncodeLUT(inputs []sat.Lit, mask uint16, out sat.Lit) {
	k := len(inputs)
	for idx := 0; idx < 1<<uint(k); idx++ {
		clause := make([]sat.Lit, 0, k+1)
		for j := 0; j < k; j++ {
			if idx>>uint(j)&1 != 0 {
				clause = append(clause, inputs[j].Not())
			} else {
				clause = append(clause, inputs[j])
			}
		}
		if mask>>uint(idx)&1 != 0 {
			clause = append(clause, out)
		} else {
			clause = append(clause, out.Not())
		}
		e.S.AddClause(clause...)
	}
}

// EncodeNetlistComb encodes all LUTs of the netlist in evaluation order.
// Asynchronous ROM outputs act as cut points: they must already be bound
// via BindNet (shared with the specification side).
func (e *Encoder) EncodeNetlistComb(nl *netlist.Netlist) error {
	if err := nl.Build(); err != nil {
		return err
	}
	for _, cn := range nl.CombOrder() {
		if cn.Kind != netlist.CombLUT {
			continue // ROM outputs are cut points
		}
		l := &nl.LUTs[cn.Index]
		ins := make([]sat.Lit, len(l.Inputs))
		for i, in := range l.Inputs {
			ins[i] = e.BindNet(in)
		}
		e.EncodeLUT(ins, l.Mask, e.BindNet(l.Out))
	}
	return nil
}

// AddEquiv asserts a <-> b with two binary clauses. It is sound only for a
// pair already proven equal: it adds no constraint the circuits do not
// already imply, it only hands the solver the fact.
func (e *Encoder) AddEquiv(a, b sat.Lit) {
	e.S.AddClause(a.Not(), b)
	e.S.AddClause(a, b.Not())
}

// Verdict is the outcome of one equivalence obligation.
type Verdict int

// Obligation outcomes.
const (
	Equal Verdict = iota
	NotEqual
	Undecided // conflict budget exhausted
)

// ProveEqual checks a == b by solving the miter under an assumption.
// budget limits conflicts per obligation (0 = unlimited).
func (e *Encoder) ProveEqual(a, b sat.Lit, budget int64) Verdict {
	// m <-> (a xor b); assume m; UNSAT => equal.
	mv := e.S.NewVar()
	m := sat.MkLit(mv, false)
	e.S.AddClause(m.Not(), a, b)
	e.S.AddClause(m.Not(), a.Not(), b.Not())
	// (The reverse implication is unnecessary for the proof: assuming m
	// forces a != b; UNSAT proves equivalence.)
	e.S.MaxConflicts = budget
	switch e.S.Solve(m) {
	case sat.Unsat:
		return Equal
	case sat.Sat:
		return NotEqual
	default:
		return Undecided
	}
}
