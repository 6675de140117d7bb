package equiv

import (
	"math/rand"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/sat"
)

// Simulation-guided SAT sweeping (fraiging; Kuehlmann 2002, Mishchenko et
// al.). A technology mapper emits every LUT over a cut of the AIG it maps,
// so almost every LUT output has an equivalent AIG node. The sweep finds it
// by random simulation and proves the pair locally, in topological order,
// so each proof only has to reach back to the last proven pairs instead of
// to the sources:
//
//  1. Both sides are simulated with the same random words on every shared
//     source; the AIG nodes of the roots' cone are hashed by signature,
//     modulo complement.
//  2. Each LUT, in evaluation order, takes the AIG literals with its
//     signature as candidates. A candidate is proved by a cut-point check —
//     the LUT's inputs are already proven equal to AIG literals, which
//     become free variables, and the candidate's AIG cone over them is
//     evaluated exhaustively — or, failing that, by a SAT miter with a
//     small conflict cap. A proven pair joins the shared solver as an
//     equivalence (two binary clauses) before its next miter.
//  3. A root obligation whose AIG literal is the one its net was proven
//     equal to is closed; every other root gets the full miter.
//
// Soundness: signatures only propose; a pair is recorded only when proved,
// and a cut point is placed only at a recorded pair, so every recorded pair
// holds for all source assignments. A candidate that differs locally, or
// that exhausts its cap, is simply not merged. Only Prove's full miter on a
// root returns NotEqual.
const (
	sweepWords    = 4    // 64-bit random simulation words per source
	sweepSeed     = 1    // simulation is deterministic: same classes, same proofs
	cutMaxSupport = 6    // free variables of a cut-point check (one 64-bit word)
	cutMaxNodes   = 256  // AIG nodes a cut-point check may evaluate
	candBudget    = 1000 // conflict cap of one candidate's SAT miter
	satCandidates = 2    // candidates per LUT tried with SAT
)

// noLit marks a net not (yet) proven equal to any AIG literal.
const noLit = ^logic.Lit(0)

// projections are the six variable patterns that enumerate all 64
// assignments of up to six variables in one word.
var projections = [cutMaxSupport]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

type signature [sweepWords]uint64

// pair is a proven class: net n equals AIG literal l.
type pair struct {
	n netlist.NetID
	l logic.Lit
}

// Sweeper holds a swept AIG/netlist pair: the LUT↔AIG classes it proved
// and the shared solver the remaining root obligations are decided in.
type Sweeper struct {
	aig *logic.Net
	nl  *netlist.Netlist
	enc *Encoder

	netVal  [sweepWords][]uint64 // per word, per net
	classes map[signature][]logic.Lit
	netLit  []logic.Lit // per net: the AIG literal it is proven equal to, or noLit

	// Cut-point check scratch: memo[id] is valid when stamp[id] == gen.
	stamp []uint32
	memo  []uint64
	gen   uint32
	stack []uint32

	// The shared solver is filled lazily: swept LUTs and recorded pairs
	// are encoded only when a miter first needs them.
	swept   []*netlist.LUT
	encoded int // swept[:encoded] are in the solver
	pending []pair

	Merged   int // LUTs proven equal to an AIG literal
	SATCalls int // solver calls: candidate miters and root miters
}

// NewSweeper sweeps the combinational LUT network of nl against the cone
// of roots in aig. inputNet[ord] is the net carrying AIG input ordinal ord
// (primary inputs, register outputs and ROM read ports are the shared
// sources). budget caps each candidate's conflicts (0 = candBudget alone).
func NewSweeper(aig *logic.Net, roots []logic.Lit, nl *netlist.Netlist, inputNet []netlist.NetID, budget int64) (*Sweeper, error) {
	if err := nl.Build(); err != nil {
		return nil, err
	}
	s := &Sweeper{
		aig:     aig,
		nl:      nl,
		enc:     NewEncoder(),
		classes: map[signature][]logic.Lit{},
		netLit:  make([]logic.Lit, nl.NumNets()),
		stamp:   make([]uint32, aig.NumNodes()),
		memo:    make([]uint64, aig.NumNodes()),
	}
	for i := range s.netLit {
		s.netLit[i] = noLit
	}
	s.netLit[netlist.Const0] = logic.False
	s.netLit[netlist.Const1] = logic.True
	for ord, n := range inputNet {
		in := aig.InputLit(ord)
		s.enc.BindAIGInput(aig, in, s.enc.BindNet(n))
		s.netLit[n] = in
	}
	s.simulate(roots, inputNet)
	if budget <= 0 || budget > candBudget {
		budget = candBudget
	}
	for _, cn := range nl.CombOrder() {
		if cn.Kind != netlist.CombLUT {
			continue // ROM outputs are shared sources
		}
		l := &nl.LUTs[cn.Index]
		s.swept = append(s.swept, l)
		s.merge(l, budget)
	}
	return s, nil
}

// simulate runs both sides on the same seeded random source words and
// hashes the signatures of the roots' AIG cone.
func (s *Sweeper) simulate(roots []logic.Lit, inputNet []netlist.NetID) {
	rng := rand.New(rand.NewSource(sweepSeed))
	var aigVal [sweepWords][]uint64 // per word, per AIG node
	for w := range aigVal {
		in := make([]uint64, s.aig.NumInputs())
		for i := range in {
			in[i] = rng.Uint64()
		}
		aigVal[w] = s.aig.Eval(in)
		nv := make([]uint64, s.nl.NumNets())
		nv[netlist.Const1] = ^uint64(0)
		for ord, n := range inputNet {
			nv[n] = in[ord]
		}
		for _, cn := range s.nl.CombOrder() {
			if cn.Kind == netlist.CombLUT {
				l := &s.nl.LUTs[cn.Index]
				var x [4]uint64
				for i, n := range l.Inputs {
					x[i] = nv[n]
				}
				nv[l.Out] = lutWord(l.Mask, x[:len(l.Inputs)])
			}
		}
		s.netVal[w] = nv
	}
	for _, id := range append([]uint32{0}, s.aig.Cone(roots)...) {
		sig, flip := normalize(func(w int) uint64 { return aigVal[w][id] })
		s.classes[sig] = append(s.classes[sig], logic.Lit(id<<1)^flip)
	}
}

// normalize returns a signature modulo complement: the word set with its
// first bit cleared, and the complement (0 or 1) that produced it.
func normalize(word func(w int) uint64) (signature, logic.Lit) {
	var sig signature
	flip := logic.Lit(word(0) & 1)
	for w := range sig {
		sig[w] = word(w) ^ -uint64(flip)
	}
	return sig, flip
}

// merge proves LUT l equal to one of its candidates and records the pair;
// a LUT no candidate is proved for stays unmerged.
func (s *Sweeper) merge(l *netlist.LUT, budget int64) {
	sig, flip := normalize(func(w int) uint64 { return s.netVal[w][l.Out] })
	cands := s.classes[sig]
	for _, c := range cands {
		if s.cutCheck(l, c^flip) {
			s.record(l.Out, c^flip)
			return
		}
	}
	for _, c := range cands[:min(len(cands), satCandidates)] {
		if s.miter(c^flip, l.Out, budget) == Equal {
			s.record(l.Out, c^flip)
			return
		}
	}
}

// record makes a proven pair a class: a cut point for later checks and an
// equivalence in the shared solver.
func (s *Sweeper) record(n netlist.NetID, l logic.Lit) {
	s.netLit[n] = l
	s.Merged++
	s.pending = append(s.pending, pair{n, l})
}

// miter decides spec == impl in the shared solver, first encoding every
// LUT swept so far and every pair recorded since the last call.
func (s *Sweeper) miter(spec logic.Lit, impl netlist.NetID, budget int64) Verdict {
	for ; s.encoded < len(s.swept); s.encoded++ {
		l := s.swept[s.encoded]
		ins := make([]sat.Lit, len(l.Inputs))
		for i, in := range l.Inputs {
			ins[i] = s.enc.BindNet(in)
		}
		s.enc.EncodeLUT(ins, l.Mask, s.enc.BindNet(l.Out))
	}
	for _, p := range s.pending {
		s.enc.AddEquiv(s.enc.EncodeAIG(s.aig, p.l), s.enc.BindNet(p.n))
	}
	s.pending = s.pending[:0]
	s.SATCalls++
	return s.enc.ProveEqual(s.enc.EncodeAIG(s.aig, spec), s.enc.BindNet(impl), budget)
}

// cutCheck reports whether LUT l computes AIG literal cand for every
// assignment of the cut points: the AIG literals l's inputs are proven
// equal to, plus any further AIG inputs cand's cone reaches, up to
// cutMaxSupport free variables in all. false is not a verdict.
func (s *Sweeper) cutCheck(l *netlist.LUT, cand logic.Lit) bool {
	s.gen++
	if s.gen == 0 { // stamps wrapped: invalidate every memo entry
		clear(s.stamp)
		s.gen = 1
	}
	s.set(0, 0)
	nvars := 0
	var x [4]uint64
	for i, n := range l.Inputs {
		lit := s.netLit[n]
		if lit == noLit {
			return false
		}
		id := lit.Node()
		if s.stamp[id] != s.gen {
			s.set(id, projections[nvars])
			nvars++
		}
		x[i] = s.memo[id] ^ -uint64(lit&1)
	}
	want := lutWord(l.Mask, x[:len(l.Inputs)])

	// Evaluate cand's cone down to the cut points, iteratively.
	stack := append(s.stack[:0], cand.Node())
	pushes := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if s.stamp[id] == s.gen {
			stack = stack[:len(stack)-1]
			continue
		}
		if s.aig.IsInput(logic.Lit(id << 1)) {
			if nvars == cutMaxSupport {
				return false
			}
			s.set(id, projections[nvars])
			nvars++
			stack = stack[:len(stack)-1]
			continue
		}
		f0, f1 := s.aig.Fanins(id)
		ready := true
		for _, f := range [2]logic.Lit{f0, f1} {
			if s.stamp[f.Node()] != s.gen {
				stack = append(stack, f.Node())
				ready = false
				pushes++
			}
		}
		if pushes > cutMaxNodes {
			return false
		}
		if ready {
			s.set(id, (s.memo[f0.Node()]^-uint64(f0&1))&(s.memo[f1.Node()]^-uint64(f1&1)))
			stack = stack[:len(stack)-1]
		}
	}
	s.stack = stack
	return s.memo[cand.Node()]^-uint64(cand&1) == want
}

func (s *Sweeper) set(id uint32, v uint64) {
	s.stamp[id] = s.gen
	s.memo[id] = v
}

// Prove decides obligation spec == impl. An obligation whose net the sweep
// proved equal to spec itself is closed without a solver call; any other
// goes to the full miter in the shared solver, where the recorded classes
// act as equivalences. budget caps the miter's conflicts (0 = unlimited).
func (s *Sweeper) Prove(spec logic.Lit, impl netlist.NetID, budget int64) Verdict {
	if s.netLit[impl] == spec {
		return Equal
	}
	return s.miter(spec, impl, budget)
}

// lutWord evaluates a LUT mask on 64 lanes: bit L of the result is the
// mask entry selected by bit L of each input word (input 0 least
// significant).
func lutWord(mask uint16, ins []uint64) uint64 {
	var out uint64
	for idx := 0; idx < 1<<len(ins); idx++ {
		if mask>>idx&1 == 0 {
			continue
		}
		t := ^uint64(0)
		for j, x := range ins {
			if idx>>j&1 == 0 {
				x = ^x
			}
			t &= x
		}
		out |= t
	}
	return out
}
