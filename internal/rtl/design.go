package rtl

import (
	"fmt"
	"sync"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/techmap"
)

// Design is an elaborated circuit ready for simulation and synthesis.
type Design struct {
	Name string
	b    *Builder

	// romLevels holds, per ROM, its asynchronous address-dependency level:
	// 0 when the address cone contains no other async ROM output, 1+max of
	// dependency levels otherwise, -1 for synchronous ROMs.
	romLevels   []int
	maxROMLevel int

	// Compiled evaluation schedule shared by every simulator of this
	// design (the interpreter uses its port and state ordinals only);
	// built lazily on the first NewSimulator and rebuilt if the underlying
	// AIG has grown since (e.g. extra logic added by a later synthesis
	// pass).
	compMu   sync.Mutex
	compiled *compSched
}

// compSched is the compiled evaluation schedule: the instruction tape plus
// everything a compiled simulator needs to run one Eval as a single
// segmented sweep instead of the interpreter's maxROMLevel+2 whole-AIG
// passes. Node ids are topological and a ROM's output pseudo-inputs are
// created after its address cone exists, so evaluating up to each
// asynchronous ROM's first output node guarantees its address is resolved;
// the gathered data is presented and the sweep continues — every node is
// visited exactly once per Eval, and each async ROM is gathered exactly
// once (the interpreter's EDAC-counter contract).
type compSched struct {
	tape *logic.Compiled
	segs []romSeg
	// Precomputed input ordinals (per register bit, per ROM output bit,
	// per input-port bit) so state presentation and stimulus writes avoid
	// the aig.InputOrdinal map lookup per bit, and port indices so a port
	// access resolves its name once per call.
	regOrd  [][]int32
	romOrd  [][8]int32
	inOrd   [][]int32
	inPort  map[string]int
	outPort map[string]int
}

// romSeg schedules one asynchronous ROM: evaluate the tape up to boundary
// (the node id of its first output pseudo-input), then gather.
type romSeg struct {
	rom      int
	boundary int
}

// compiledSched returns the design's shared evaluation schedule, compiling
// it on first use. Safe for concurrent simulator construction.
func (d *Design) compiledSched() *compSched {
	d.compMu.Lock()
	defer d.compMu.Unlock()
	if d.compiled != nil && d.compiled.tape.NumNodes() == d.b.aig.NumNodes() {
		return d.compiled
	}
	b := d.b
	sc := &compSched{
		tape:    b.aig.Compile(),
		regOrd:  make([][]int32, len(b.regs)),
		romOrd:  make([][8]int32, len(b.roms)),
		inOrd:   make([][]int32, len(b.inputs)),
		inPort:  make(map[string]int, len(b.inputs)),
		outPort: make(map[string]int, len(b.outputs)),
	}
	ords := func(bus Bus) []int32 {
		o := make([]int32, len(bus))
		for bit, l := range bus {
			o[bit] = int32(b.aig.InputOrdinal(l))
		}
		return o
	}
	for i := range b.regs {
		sc.regOrd[i] = ords(b.regs[i].q)
	}
	for i, p := range b.inputs {
		sc.inOrd[i] = ords(p.bus)
		sc.inPort[p.name] = i
	}
	for i, p := range b.outputs {
		sc.outPort[p.name] = i
	}
	for i := range b.roms {
		copy(sc.romOrd[i][:], ords(b.roms[i].out))
		if b.roms[i].style == ROMAsync {
			// Declaration order is dependency order: an address literal must
			// exist when ROM() is called, so boundaries are increasing.
			sc.segs = append(sc.segs, romSeg{rom: i, boundary: int(b.roms[i].out[0].Node())})
		}
	}
	d.compiled = sc
	return sc
}

// Build validates the builder's contents and elaborates the design:
// every register must be connected and all literals in range.
func (b *Builder) Build() (*Design, error) {
	for i := range b.regs {
		if !b.regs[i].connected {
			return nil, fmt.Errorf("rtl %s: register %s has no next-value connection", b.name, b.regs[i].name)
		}
	}
	seen := map[string]bool{}
	for _, p := range append(append([]port(nil), b.inputs...), b.outputs...) {
		if seen[p.name] {
			return nil, fmt.Errorf("rtl %s: duplicate port name %q", b.name, p.name)
		}
		seen[p.name] = true
	}
	d := &Design{Name: b.name, b: b}
	if err := d.computeROMLevels(); err != nil {
		return nil, err
	}
	return d, nil
}

// computeROMLevels assigns each asynchronous ROM a dependency level so the
// simulator can resolve reads in the right number of passes. A ROM whose
// address depends (combinationally) on another async ROM's output gets a
// higher level; a cycle through ROM reads is rejected.
func (d *Design) computeROMLevels() error {
	b := d.b
	// Which ROM (if any) drives each AIG input ordinal.
	romOfInput := map[int]int{}
	for ri := range b.roms {
		for _, o := range b.roms[ri].out {
			romOfInput[b.aig.InputOrdinal(o)] = ri
		}
	}
	deps := make([][]int, len(b.roms)) // deps[i] = async roms feeding rom i's address
	for ri := range b.roms {
		cone := b.aig.Cone(b.roms[ri].addr)
		for _, id := range cone {
			l := logic.Lit(id << 1)
			if b.aig.IsInput(l) {
				if src, ok := romOfInput[b.aig.InputOrdinal(l)]; ok && b.roms[src].style == ROMAsync {
					deps[ri] = append(deps[ri], src)
				}
			}
		}
	}
	levels := make([]int, len(b.roms))
	state := make([]int, len(b.roms)) // 0 unvisited, 1 visiting, 2 done
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case 1:
			return fmt.Errorf("rtl %s: combinational ROM cycle through %s", d.Name, b.roms[i].name)
		case 2:
			return nil
		}
		state[i] = 1
		lv := 0
		for _, dep := range deps[i] {
			if err := visit(dep); err != nil {
				return err
			}
			if levels[dep]+1 > lv {
				lv = levels[dep] + 1
			}
		}
		levels[i] = lv
		state[i] = 2
		return nil
	}
	d.maxROMLevel = -1
	for i := range b.roms {
		if err := visit(i); err != nil {
			return err
		}
	}
	for i := range b.roms {
		if b.roms[i].style != ROMAsync {
			levels[i] = -1
			continue
		}
		if levels[i] > d.maxROMLevel {
			d.maxROMLevel = levels[i]
		}
	}
	d.romLevels = levels
	return nil
}

// Stats summarizes the elaborated design.
type Stats struct {
	AndNodes int
	Inputs   int
	RegBits  int
	ROMs     int
	Depth    int // unit-delay AIG depth over all sequential/output roots
}

// Stats computes size metrics of the design before mapping.
func (d *Design) Stats() Stats {
	b := d.b
	s := Stats{AndNodes: b.aig.NumAnds(), Inputs: 0}
	for _, p := range b.inputs {
		s.Inputs += len(p.bus)
	}
	var roots []logic.Lit
	for i := range b.regs {
		s.RegBits += len(b.regs[i].q)
		roots = append(roots, b.regs[i].next...)
		roots = append(roots, b.regs[i].en)
	}
	s.ROMs = len(b.roms)
	for i := range b.roms {
		roots = append(roots, b.roms[i].addr...)
	}
	for _, p := range b.outputs {
		roots = append(roots, p.bus...)
	}
	s.Depth = b.aig.Depth(roots)
	return s
}

// Synthesize technology-maps the design and returns a netlist carrying the
// same ports, registers and ROM macros.
func (d *Design) Synthesize(opt techmap.Options) (*netlist.Netlist, error) {
	res, err := d.SynthesizeTracked(opt)
	if err != nil {
		return nil, err
	}
	return res.Netlist, nil
}

// SynthResult is a synthesized netlist together with the specification/
// implementation correspondence needed for formal verification.
type SynthResult struct {
	Design  *Design
	Netlist *netlist.Netlist

	piNets  [][]netlist.NetID // per input port
	regQ    [][]netlist.NetID // per register
	romOut  [][]netlist.NetID // per ROM
	roots   []logic.Lit       // specification obligations
	rootNet []netlist.NetID   // implementation nets, aligned with roots
	rootTag []string          // human-readable obligation names
}

// SynthesizeTracked is Synthesize keeping the correspondence for Verify.
func (d *Design) SynthesizeTracked(opt techmap.Options) (*SynthResult, error) {
	b := d.b
	nl := netlist.New(d.Name)

	// Allocate source nets for every AIG pseudo-input.
	piNets := make([][]netlist.NetID, len(b.inputs))
	for i, p := range b.inputs {
		piNets[i] = nl.AddInput(p.name, len(p.bus))
	}
	regQ := make([][]netlist.NetID, len(b.regs))
	for i := range b.regs {
		regQ[i] = nl.NewNets(len(b.regs[i].q))
	}
	romOut := make([][]netlist.NetID, len(b.roms))
	for i := range b.roms {
		romOut[i] = nl.NewNets(8)
	}

	// Collect every literal the netlist must realize.
	var roots []logic.Lit
	var tags []string
	addRoot := func(tag string, ls ...logic.Lit) {
		for i, l := range ls {
			roots = append(roots, l)
			if len(ls) > 1 {
				tags = append(tags, fmt.Sprintf("%s[%d]", tag, i))
			} else {
				tags = append(tags, tag)
			}
		}
	}
	for i := range b.regs {
		addRoot(b.regs[i].name+".d", b.regs[i].next...)
		if b.regs[i].en != logic.True {
			addRoot(b.regs[i].name+".en", b.regs[i].en)
		}
	}
	for i := range b.roms {
		addRoot(b.roms[i].name+".addr", b.roms[i].addr...)
	}
	for _, p := range b.outputs {
		addRoot("out:"+p.name, p.bus...)
	}

	cover, err := techmap.Map(b.aig, roots, opt)
	if err != nil {
		return nil, err
	}
	rootNets, err := cover.Emit(techmap.EmitEnv{
		NL: nl,
		InputNet: func(ord int) netlist.NetID {
			src := b.inKind[ord]
			switch src.kind {
			case srcPI:
				return piNets[src.idx][src.bit]
			case srcReg:
				return regQ[src.idx][src.bit]
			case srcROM:
				return romOut[src.idx][src.bit]
			}
			panic("rtl: unknown input source")
		},
	})
	if err != nil {
		return nil, err
	}

	// Wire sequential elements and outputs from the mapped roots.
	allRootNets := append([]netlist.NetID(nil), rootNets...)
	next := func() netlist.NetID {
		n := rootNets[0]
		rootNets = rootNets[1:]
		return n
	}
	for i := range b.regs {
		r := &b.regs[i]
		en := netlist.Invalid
		dNets := make([]netlist.NetID, len(r.next))
		for bit := range r.next {
			dNets[bit] = next()
		}
		if r.en != logic.True {
			en = next()
		}
		for bit := range r.next {
			nl.AddFF(netlist.FF{
				D: dNets[bit], En: en, Q: regQ[i][bit], Init: r.init[bit],
				Name: fmt.Sprintf("%s[%d]", r.name, bit),
			})
		}
	}
	for i := range b.roms {
		r := &b.roms[i]
		var rom netlist.ROM
		rom.Name = r.name
		rom.Sync = r.style == ROMSync
		rom.Contents = r.contents
		for bit := 0; bit < 8; bit++ {
			rom.Addr[bit] = next()
			rom.Out[bit] = romOut[i][bit]
		}
		nl.AddROM(rom)
	}
	for _, p := range b.outputs {
		nets := make([]netlist.NetID, len(p.bus))
		for i := range p.bus {
			nets[i] = next()
		}
		nl.AddOutput(p.name, nets)
	}
	if err := nl.Build(); err != nil {
		return nil, fmt.Errorf("rtl %s: synthesized netlist invalid: %w", d.Name, err)
	}
	return &SynthResult{
		Design: d, Netlist: nl,
		piNets: piNets, regQ: regQ, romOut: romOut,
		roots: roots, rootNet: allRootNets, rootTag: tags,
	}, nil
}
