// Package sat implements a small conflict-driven clause-learning (CDCL)
// SAT solver: two-watched-literal propagation, first-UIP conflict
// analysis with clause learning, activity-based (VSIDS-style) decisions,
// geometric restarts and learned-clause reduction.
//
// It is the engine behind the formal equivalence checking of mapped
// netlists against their source AIGs (package equiv) — the same role
// MiniSat-class solvers play inside production logic-synthesis flows.
package sat

import "fmt"

// Lit is a literal: variable index << 1 | sign (1 = negated). Variables
// are 0-based.
type Lit int32

// MkLit builds a literal from a variable and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// value of a variable assignment.
type value int8

const (
	vUnassigned value = iota
	vTrue
	vFalse
)

type clause struct {
	lits    []Lit
	learned bool
	deleted bool // dropped by reduceLearnts; unlinked lazily by propagate
	act     float64
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Solver is a CDCL SAT solver. Create with New, add clauses, then Solve.
type Solver struct {
	nVars   int
	clauses []*clause
	learnts []*clause

	watches [][]*clause // watches[lit] = clauses watching lit

	assign  []value
	level   []int32
	reason  []*clause
	trail   []Lit
	trailLo []int // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	claInc   float64
	order    *heap // activity-ordered variable heap

	seen     []bool
	conflict bool // set when an empty clause was added

	// Stats.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	MaxConflicts int64 // 0 = unlimited; Solve returns Unknown past this
}

// New returns a solver with n variables (more can be added with NewVar).
func New(n int) *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	s.order = newHeap(&s.activity)
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.nVars
	s.nVars++
	s.assign = append(s.assign, vUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return s.nVars }

func (s *Solver) litValue(l Lit) value {
	v := s.assign[l.Var()]
	if v == vUnassigned {
		return vUnassigned
	}
	if l.Neg() {
		if v == vTrue {
			return vFalse
		}
		return vTrue
	}
	return v
}

// AddClause adds a clause over the given literals. It returns false if the
// formula is already trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.conflict {
		return false
	}
	// Simplify: drop duplicate/false literals, detect tautologies.
	out := lits[:0:0]
	for _, l := range lits {
		if int(l.Var()) >= s.nVars {
			panic("sat: literal references unknown variable")
		}
		switch s.rootValue(l) {
		case vTrue:
			return true // already satisfied at root level
		case vFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.conflict = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.conflict = true
			return false
		}
		if s.propagate() != nil {
			s.conflict = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

// rootValue returns a literal's value if assigned at decision level 0.
func (s *Solver) rootValue(l Lit) value {
	if s.assign[l.Var()] != vUnassigned && s.level[l.Var()] == 0 {
		return s.litValue(l)
	}
	return vUnassigned
}

func (s *Solver) watch(c *clause) {
	// Watch the first two literals.
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) decisionLevel() int { return len(s.trailLo) }

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.litValue(l) {
	case vTrue:
		return true
	case vFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = vFalse
	} else {
		s.assign[v] = vTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns a conflicting clause or nil.
// Each watch list is compacted in place (kept watches are copied down over
// ws[:0] in their original order), so propagation allocates only when a
// clause moves to another literal's list. Clauses deleted by reduceLearnts
// are unlinked here as they are met.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if c.deleted {
				continue
			}
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == vTrue {
				ws[j] = c
				j++
				continue
			}
			// Find a new watch. Its list is never ws itself: the new watch
			// is not false, while every clause on ws watches the false p.Not().
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != vFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = c
			j++
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep the unvisited watches.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick the next trail literal seen in the conflict.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}
	// Compute backtrack level: max level among the other literals.
	back := 0
	for _, q := range learnt[1:] {
		if int(s.level[q.Var()]) > back {
			back = int(s.level[q.Var()])
		}
	}
	for _, q := range learnt[1:] {
		s.seen[q.Var()] = false
	}
	return learnt, back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learned {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// backtrackTo undoes assignments above the given level.
func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lo := s.trailLo[level]
	for i := len(s.trail) - 1; i >= lo; i-- {
		v := s.trail[i].Var()
		s.assign[v] = vUnassigned
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:level]
	s.qhead = len(s.trail)
}

// pickBranch selects the unassigned variable with highest activity.
func (s *Solver) pickBranch() int {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assign[v] == vUnassigned {
			return v
		}
	}
	return -1
}

// reduceLearnts removes the less active half of the learned clauses. A
// removed clause is only flagged; propagate drops it from each watch list
// the next time it walks that list.
func (s *Solver) reduceLearnts() {
	if len(s.learnts) < 100 {
		return
	}
	// Partial selection: keep the more active half (simple threshold on
	// median-ish via average).
	var sum float64
	for _, c := range s.learnts {
		sum += c.act
	}
	avg := sum / float64(len(s.learnts))
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if c.act >= avg || s.isReason(c) || len(c.lits) <= 2 {
			kept = append(kept, c)
		} else {
			c.deleted = true
		}
	}
	clear(s.learnts[len(kept):])
	s.learnts = kept
}

func (s *Solver) isReason(c *clause) bool {
	v := c.lits[0].Var()
	return s.assign[v] != vUnassigned && s.reason[v] == c
}

// Solve runs the CDCL loop under the given assumptions. It returns Sat,
// Unsat, or Unknown when MaxConflicts is exceeded.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.conflict {
		return Unsat
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.conflict = true
		return Unsat
	}
	// Apply assumptions as pseudo-decisions.
	for _, a := range assumptions {
		switch s.litValue(a) {
		case vTrue:
			continue
		case vFalse:
			return Unsat
		}
		s.trailLo = append(s.trailLo, len(s.trail))
		s.enqueue(a, nil)
		if s.propagate() != nil {
			s.backtrackTo(0)
			return Unsat
		}
	}
	assumeLevel := s.decisionLevel()

	restartLimit := int64(100)
	conflictsAtStart := s.Conflicts
	for {
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			if s.decisionLevel() == assumeLevel {
				s.backtrackTo(0)
				if assumeLevel == 0 {
					s.conflict = true
				}
				return Unsat
			}
			learnt, back := s.analyze(confl)
			if back < assumeLevel {
				back = assumeLevel
			}
			s.backtrackTo(back)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.backtrackTo(0)
					return Unsat
				}
			} else {
				c := &clause{lits: learnt, learned: true, act: s.claInc}
				s.learnts = append(s.learnts, c)
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.MaxConflicts > 0 && s.Conflicts-conflictsAtStart > s.MaxConflicts {
				s.backtrackTo(0)
				return Unknown
			}
			if s.Conflicts-conflictsAtStart >= restartLimit {
				restartLimit = restartLimit * 3 / 2
				s.reduceLearnts()
				s.backtrackTo(assumeLevel)
			}
			continue
		}
		v := s.pickBranch()
		if v < 0 {
			return Sat // all variables assigned
		}
		s.Decisions++
		s.trailLo = append(s.trailLo, len(s.trail))
		// Phase: default to false (good for circuit encodings).
		s.enqueue(MkLit(v, true), nil)
	}
}

// Value returns the model value of a variable after Sat.
func (s *Solver) Value(v int) bool { return s.assign[v] == vTrue }

// heap is a max-heap of variables ordered by activity.
type heap struct {
	act  *[]float64
	data []int
	pos  []int
}

func newHeap(act *[]float64) *heap { return &heap{act: act} }

func (h *heap) size() int { return len(h.data) }

func (h *heap) less(a, b int) bool { return (*h.act)[h.data[a]] > (*h.act)[h.data[b]] }

func (h *heap) swap(a, b int) {
	h.data[a], h.data[b] = h.data[b], h.data[a]
	h.pos[h.data[a]] = a
	h.pos[h.data[b]] = b
}

func (h *heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *heap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.data) && h.less(l, best) {
			best = l
		}
		if r < len(h.data) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *heap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = len(h.data) - 1
	h.up(len(h.data) - 1)
}

func (h *heap) pop() int {
	v := h.data[0]
	h.swap(0, len(h.data)-1)
	h.data = h.data[:len(h.data)-1]
	h.pos[v] = -1
	if len(h.data) > 0 {
		h.down(0)
	}
	return v
}

func (h *heap) update(v int) {
	if v < len(h.pos) && h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}
