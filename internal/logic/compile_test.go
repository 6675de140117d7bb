package logic

import (
	"math/rand"
	"testing"
)

// randNet builds a random AIG over nIn inputs with nOps random gates,
// returning the net and a pool of interior literals.
func randNet(r *rand.Rand, nIn, nOps int) (*Net, []Lit) {
	n := New()
	pool := []Lit{False, True}
	for i := 0; i < nIn; i++ {
		pool = append(pool, n.Input())
	}
	pick := func() Lit {
		l := pool[r.Intn(len(pool))]
		if r.Intn(2) == 0 {
			l = Not(l)
		}
		return l
	}
	for i := 0; i < nOps; i++ {
		var l Lit
		switch r.Intn(5) {
		case 0:
			l = n.And(pick(), pick())
		case 1:
			l = n.Or(pick(), pick())
		case 2:
			l = n.Xor(pick(), pick())
		case 3:
			l = n.Mux(pick(), pick(), pick())
		default:
			l = n.Nand(pick(), pick())
		}
		pool = append(pool, l)
	}
	return n, pool
}

// TestCompiledEvalMatchesInterpreter drives random nets with random stimulus
// through the interpreted EvalInto, the compiled EvalInto and a chain of
// compiled EvalRange sweeps split at random boundaries; all three must
// agree on every node value at every pass.
func TestCompiledEvalMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	rounds := 20
	passes := 60
	if testing.Short() {
		rounds, passes = 6, 25
	}
	for round := 0; round < rounds; round++ {
		n, _ := randNet(r, 4+r.Intn(12), 30+r.Intn(200))
		c := n.Compile()
		if c.NumNodes() != n.NumNodes() {
			t.Fatalf("round %d: tape has %d nodes, net has %d", round, c.NumNodes(), n.NumNodes())
		}
		inputs := make([]uint64, n.NumInputs())
		ref := make([]uint64, n.NumNodes())
		flat := make([]uint64, n.NumNodes())
		split := make([]uint64, n.NumNodes())
		for pass := 0; pass < passes; pass++ {
			// Mostly incremental stimulus (a few inputs move) with
			// occasional full randomization.
			if pass == 0 || r.Intn(8) == 0 {
				for i := range inputs {
					inputs[i] = r.Uint64()
				}
			} else {
				for k := r.Intn(3); k >= 0; k-- {
					inputs[r.Intn(len(inputs))] ^= 1 << uint(r.Intn(64))
				}
			}
			n.EvalInto(inputs, ref)
			c.EvalInto(inputs, flat)
			for from := 0; from < n.NumNodes(); {
				to := from + 1 + r.Intn(n.NumNodes()-from)
				c.EvalRange(from, to, inputs, split)
				from = to
			}
			for id := 0; id < n.NumNodes(); id++ {
				if flat[id] != ref[id] {
					t.Fatalf("round %d pass %d: compiled EvalInto node %d = %#x, interpreter %#x", round, pass, id, flat[id], ref[id])
				}
				if split[id] != ref[id] {
					t.Fatalf("round %d pass %d: split EvalRange node %d = %#x, interpreter %#x", round, pass, id, split[id], ref[id])
				}
			}
		}
	}
}
