package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New(2)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(1, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("status %v", got)
	}
	if !s.Value(0) || s.Value(1) {
		t.Fatal("model wrong")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(1)
	s.AddClause(MkLit(0, false))
	if ok := s.AddClause(MkLit(0, true)); ok {
		t.Fatal("contradictory unit accepted")
	}
	if s.Solve() != Unsat {
		t.Fatal("should be UNSAT")
	}
}

func TestXorChainSat(t *testing.T) {
	// x0 xor x1 = 1 encoded in CNF, chained.
	s := New(4)
	addXor1 := func(a, b int) {
		s.AddClause(MkLit(a, false), MkLit(b, false))
		s.AddClause(MkLit(a, true), MkLit(b, true))
	}
	addXor1(0, 1)
	addXor1(1, 2)
	addXor1(2, 3)
	if s.Solve() != Sat {
		t.Fatal("xor chain should be SAT")
	}
	if s.Value(0) == s.Value(1) || s.Value(1) == s.Value(2) || s.Value(2) == s.Value(3) {
		t.Fatal("model violates xor constraints")
	}
}

// TestPigeonhole: n+1 pigeons in n holes is UNSAT (hard for resolution but
// tiny instances are fine).
func TestPigeonhole(t *testing.T) {
	const pigeons, holes = 5, 4
	vr := func(p, h int) int { return p*holes + h }
	s := New(pigeons * holes)
	// Each pigeon in some hole.
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(vr(p, h), false))
		}
		s.AddClause(c...)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(vr(p1, h), true), MkLit(vr(p2, h), true))
			}
		}
	}
	if s.Solve() != Unsat {
		t.Fatal("pigeonhole should be UNSAT")
	}
	if s.Conflicts == 0 {
		t.Fatal("expected a non-trivial search")
	}
}

func TestAssumptions(t *testing.T) {
	// (a | b) & (!a | c): solvable; under assumption !b & !c it forces a
	// and !a -> UNSAT.
	s := New(3)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, true), MkLit(2, false))
	if s.Solve() != Sat {
		t.Fatal("base formula should be SAT")
	}
	if s.Solve(MkLit(1, true), MkLit(2, true)) != Unsat {
		t.Fatal("assumptions should make it UNSAT")
	}
	// Solver must remain usable after an assumption failure.
	if s.Solve() != Sat {
		t.Fatal("solver not reusable after assumption UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New(2)
	if !s.AddClause(MkLit(0, false), MkLit(0, true)) {
		t.Fatal("tautology rejected")
	}
	if !s.AddClause(MkLit(1, false), MkLit(1, false)) {
		t.Fatal("duplicate-literal clause rejected")
	}
	if s.Solve() != Sat {
		t.Fatal("should be SAT")
	}
	if !s.Value(1) {
		t.Fatal("unit after dedup not applied")
	}
}

// TestRandom3SAT cross-checks the solver against brute force on small
// random instances, both SAT and UNSAT.
func TestRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		nv := 6 + rng.Intn(4)
		nc := 10 + rng.Intn(30)
		type cls [3]Lit
		var clauses []cls
		for i := 0; i < nc; i++ {
			var c cls
			for j := 0; j < 3; j++ {
				c[j] = MkLit(rng.Intn(nv), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
		}
		// Brute force.
		bruteSat := false
		for m := 0; m < 1<<uint(nv); m++ {
			ok := true
			for _, c := range clauses {
				cok := false
				for _, l := range c {
					val := m>>uint(l.Var())&1 == 1
					if l.Neg() {
						val = !val
					}
					if val {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		s := New(nv)
		for _, c := range clauses {
			s.AddClause(c[0], c[1], c[2])
		}
		got := s.Solve()
		want := Unsat
		if bruteSat {
			want = Sat
		}
		if got != want {
			t.Fatalf("trial %d: solver says %v, brute force says %v", trial, got, want)
		}
		if got == Sat {
			// Verify the model.
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					v := s.Value(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d: model does not satisfy clause", trial)
				}
			}
		}
	}
}

func TestMaxConflicts(t *testing.T) {
	// A hard instance with a tiny budget must return Unknown.
	const pigeons, holes = 8, 7
	vr := func(p, h int) int { return p*holes + h }
	s := New(pigeons * holes)
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(vr(p, h), false))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(vr(p1, h), true), MkLit(vr(p2, h), true))
			}
		}
	}
	s.MaxConflicts = 10
	if got := s.Solve(); got != Unknown {
		t.Fatalf("expected Unknown under a 10-conflict budget, got %v", got)
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(3, true)
	if l.Var() != 3 || !l.Neg() || l.Not().Neg() {
		t.Fatal("literal encoding broken")
	}
	if l.String() != "-4" || l.Not().String() != "4" {
		t.Fatalf("String: %s %s", l, l.Not())
	}
}

func BenchmarkPigeonhole76(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const pigeons, holes = 7, 6
		vr := func(p, h int) int { return p*holes + h }
		s := New(pigeons * holes)
		for p := 0; p < pigeons; p++ {
			var c []Lit
			for h := 0; h < holes; h++ {
				c = append(c, MkLit(vr(p, h), false))
			}
			s.AddClause(c...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 < pigeons; p1++ {
				for p2 := p1 + 1; p2 < pigeons; p2++ {
					s.AddClause(MkLit(vr(p1, h), true), MkLit(vr(p2, h), true))
				}
			}
		}
		if s.Solve() != Unsat {
			b.Fatal("wrong verdict")
		}
	}
}

// TestRandomHard3SAT drives instances near the satisfiability threshold so
// the solver exercises restarts and learned-clause reduction; models are
// validated, UNSAT answers cross-checked only by determinism.
func TestRandomHard3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(4261))
	for trial := 0; trial < 6; trial++ {
		const nv = 60
		nc := nv * 426 / 100
		s := New(nv)
		type cls [3]Lit
		var clauses []cls
		for i := 0; i < nc; i++ {
			var c cls
			for j := 0; j < 3; j++ {
				c[j] = MkLit(rng.Intn(nv), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			s.AddClause(c[0], c[1], c[2])
		}
		got := s.Solve()
		if got == Unknown {
			t.Fatalf("trial %d: unexpected Unknown without a budget", trial)
		}
		if got == Sat {
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					v := s.Value(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatal("model invalid")
				}
			}
		}
		// Determinism: a second identical run gives the same verdict.
		s2 := New(nv)
		for _, c := range clauses {
			s2.AddClause(c[0], c[1], c[2])
		}
		if s2.Solve() != got {
			t.Fatal("solver verdict not deterministic")
		}
		if s.Conflicts == 0 {
			t.Log("instance solved without conflicts (easy draw)")
		}
	}
}

// TestSearchStatsPinned pins the search trajectory on two seeded random
// 3-SAT instances (ratio 4.26, as in TestRandomHard3SAT, but large enough
// to restart and reduce learned clauses many times). Watch-list
// maintenance is an implementation detail only as long as it keeps each
// list's order: any change to which clause propagates first shows up here
// as a different conflict, decision or propagation count.
func TestSearchStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed                               int64
		want                               Status
		conflicts, decisions, propagations int64
	}{
		{4261, Sat, 4451, 5485, 145795},
		{4441, Unsat, 11638, 14089, 381580},
	} {
		const nv = 180
		rng := rand.New(rand.NewSource(tc.seed))
		s := New(nv)
		for i := 0; i < nv*426/100; i++ {
			var c [3]Lit
			for j := range c {
				c[j] = MkLit(rng.Intn(nv), rng.Intn(2) == 0)
			}
			s.AddClause(c[:]...)
		}
		if got := s.Solve(); got != tc.want {
			t.Fatalf("seed %d: verdict %v, want %v", tc.seed, got, tc.want)
		}
		if s.Conflicts != tc.conflicts || s.Decisions != tc.decisions || s.Propagations != tc.propagations {
			t.Errorf("seed %d: conflicts/decisions/propagations = %d/%d/%d, want %d/%d/%d",
				tc.seed, s.Conflicts, s.Decisions, s.Propagations,
				tc.conflicts, tc.decisions, tc.propagations)
		}
	}
}
