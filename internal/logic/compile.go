package logic

// Compiled is a flat, cache-friendly instruction tape translated from a
// Net's node array. The AIG's node ids are already topological (fanins are
// created before the nodes that use them), so evaluation is a single linear
// sweep over a contiguous slice of fixed-size instructions: no map lookups
// (the interpreter resolves every input ordinal through n.inOrd per pass)
// and no per-node branching on edge polarity (inversions are folded into
// precomputed XOR masks — ^0 for a complemented edge, 0 for a plain one).
//
// A Compiled tape is immutable after Compile and safe for concurrent use by
// any number of simulators; per-simulator state (values) lives with the
// caller.
type Compiled struct {
	ops []compOp
}

// compOp is one tape instruction, indexed by node id. For an AND node the
// value is (values[a]^amask) & (values[b]^bmask). For a primary input
// (ord >= 0) the value is inputs[ord].
type compOp struct {
	a, b         int32
	ord          int32 // input ordinal, or -1 for AND nodes
	amask, bmask uint64
}

func edgeMask(l Lit) uint64 {
	if l.Inverted() {
		return ^uint64(0)
	}
	return 0
}

// Compile translates the net into an instruction tape. The tape covers the
// nodes present at the time of the call; compile after the net has been
// fully built.
func (n *Net) Compile() *Compiled {
	c := &Compiled{ops: make([]compOp, len(n.nodes))}
	for id := 1; id < len(n.nodes); id++ {
		nd := &n.nodes[id]
		if nd.isInput() {
			c.ops[id] = compOp{ord: int32(n.inOrd[uint32(id)]), a: -1, b: -1}
			continue
		}
		c.ops[id] = compOp{
			ord:   -1,
			a:     int32(nd.f0.Node()),
			b:     int32(nd.f1.Node()),
			amask: edgeMask(nd.f0),
			bmask: edgeMask(nd.f1),
		}
	}
	return c
}

// NumNodes returns the node count the tape was compiled for; a mismatch
// against the live net means the net grew after Compile.
func (c *Compiled) NumNodes() int { return len(c.ops) }

// EvalInto runs one full pass over the tape, the compiled equivalent of
// Net.EvalInto: values is indexed by node id and receives every node's
// positive-output lane word.
func (c *Compiled) EvalInto(inputs, values []uint64) {
	c.EvalRange(0, len(c.ops), inputs, values)
}

// EvalRange is EvalInto restricted to the node-id range [from, to).
// Because node ids are topological, a caller can interleave range sweeps
// with external updates to inputs (the RTL simulator resolves each
// asynchronous ROM exactly at its first output node) and still evaluate
// every node exactly once per pass. The sweep is deliberately not gated
// per node: on the Rijndael cores about 42 % of nodes move on every pass
// with 64 independent lanes (about 20 % with one lane broadcast), and a
// per-node "did a fanin move" branch mispredicts more than it saves.
func (c *Compiled) EvalRange(from, to int, inputs, values []uint64) {
	if len(values) != len(c.ops) {
		panic("logic: Compiled.EvalRange values length mismatch")
	}
	if from < 1 {
		values[0] = 0
		from = 1
	}
	for id := from; id < to; id++ {
		op := &c.ops[id]
		if op.ord >= 0 {
			values[id] = inputs[op.ord]
			continue
		}
		values[id] = (values[op.a] ^ op.amask) & (values[op.b] ^ op.bmask)
	}
}
