package rtl

import (
	"fmt"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/logic"
)

// Simulator is a cycle-accurate, 64-lane bit-parallel simulator of an
// elaborated design. It evaluates the AIG directly, resolving asynchronous
// ROM reads in address-dependency order, and latches register and
// synchronous-ROM state on Step.
//
// Lane/word data layout (see internal/logic/lanes.go): every simulated
// value is a uint64 lane word whose bit L is the value seen by independent
// lane L. Registers hold one lane word per register bit, register latching
// applies the per-lane enable mask, and ROM reads gather contents[addr]
// per lane through a per-simulator EDAC store (internal/edac) that
// corrects single-bit storage errors on read — so one AIG sweep advances
// logic.Lanes (64) independent copies
// of the device in lockstep. The scalar API (SetInput, Output, Lit,
// RegValue) broadcasts stimulus across all lanes and reads lane 0, which
// reproduces single-device semantics exactly; the *Lane variants drive and
// observe a single lane for vectorized workloads.
type Simulator struct {
	d      *Design
	sc     *compSched // the design's shared schedule: port and state ordinals, tape
	inputs []uint64   // per-AIG-input lane word (bit L = lane L's value)
	values []uint64   // per-AIG-node lane words from the last Eval
	regQ   [][]uint64 // per register, per bit: one lane word
	romQ   [][8]uint64
	roms   []*edac.ROM // per-ROM EDAC stores both read paths go through
	cycles uint64

	// compiled selects the tape evaluator (NewCompiledSimulator).
	// stimDirty records that the tape must be swept on the next Eval: a
	// stimulus write moved an input lane word, or the simulator was just
	// built or Reset. With it clear and no state movement, Eval skips the
	// tape entirely and only performs the per-ROM EDAC gathers.
	compiled  bool
	stimDirty bool
}

// NewSimulator returns a simulator with registers at their initial values
// (broadcast across all lanes).
func (d *Design) NewSimulator() *Simulator {
	s := &Simulator{
		d:         d,
		sc:        d.compiledSched(),
		inputs:    make([]uint64, d.b.aig.NumInputs()),
		values:    make([]uint64, d.b.aig.NumNodes()),
		regQ:      make([][]uint64, len(d.b.regs)),
		romQ:      make([][8]uint64, len(d.b.roms)),
		stimDirty: true,
	}
	for i := range d.b.regs {
		s.regQ[i] = initWords(d.b.regs[i].init)
	}
	s.roms = make([]*edac.ROM, len(d.b.roms))
	for i := range d.b.roms {
		s.roms[i] = edac.New(d.b.roms[i].name, d.b.roms[i].contents)
	}
	return s
}

// NewCompiledSimulator returns a simulator backed by the design's compiled
// instruction tape. It is observationally identical to NewSimulator — same
// outputs, register/ROM state, cycle counts and EDAC read statistics — but
// evaluates combinational logic as one segmented linear sweep over a flat
// tape (asynchronous ROMs resolved in place rather than by whole-AIG
// re-passes), and skips the sweep altogether when no stimulus or
// sequential state moved at all.
func (d *Design) NewCompiledSimulator() *Simulator {
	s := d.NewSimulator()
	s.compiled = true
	return s
}

func initWords(init []bool) []uint64 {
	q := make([]uint64, len(init))
	for bit, v := range init {
		q[bit] = logic.Word(v)
	}
	return q
}

// Reset restores initial register and ROM-register state on every lane and
// clears inputs.
func (s *Simulator) Reset() {
	for i := range s.inputs {
		s.inputs[i] = 0
	}
	for i := range s.d.b.regs {
		for bit, v := range s.d.b.regs[i].init {
			s.regQ[i][bit] = logic.Word(v)
		}
	}
	for i := range s.romQ {
		s.romQ[i] = [8]uint64{}
	}
	s.cycles = 0
	s.stimDirty = true
}

// Cycles returns the number of Step calls since construction or Reset.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// ROMStores returns the per-ROM EDAC stores this simulator reads through,
// ordered like the builder's ROM declarations. Injecting a bit fault into
// a store faults this simulator only — the elaborated design's golden
// contents are never modified.
func (s *Simulator) ROMStores() []*edac.ROM { return s.roms }

// SetInput drives an input port with the little-endian bits of value,
// broadcast identically across all 64 lanes.
func (s *Simulator) SetInput(name string, value uint64) error {
	return s.setInputValue(name, ^uint64(0), value, "SetInputBits")
}

// SetInputBits drives an input port from packed bytes (bit i of the port at
// bits[i/8] bit i%8), broadcast identically across all 64 lanes. bits must
// be exactly (width+7)/8 bytes long.
func (s *Simulator) SetInputBits(name string, bits []byte) error {
	return s.setInputBytes(name, ^uint64(0), bits)
}

// SetInputLane drives an input port on a single lane, leaving the other
// lanes' stimulus untouched.
func (s *Simulator) SetInputLane(name string, lane int, value uint64) error {
	if err := checkLane(lane); err != nil {
		return err
	}
	return s.setInputValue(name, 1<<uint(lane), value, "SetInputBitsLane")
}

// SetInputBitsLane drives an input port on a single lane from packed
// bytes, leaving the other lanes' stimulus untouched.
func (s *Simulator) SetInputBitsLane(name string, lane int, bits []byte) error {
	if err := checkLane(lane); err != nil {
		return err
	}
	return s.setInputBytes(name, 1<<uint(lane), bits)
}

func checkLane(lane int) error {
	if lane < 0 || lane >= logic.Lanes {
		return fmt.Errorf("rtl: lane %d out of range [0,%d)", lane, logic.Lanes)
	}
	return nil
}

// inputOrds resolves an input port name to its per-bit input ordinals.
func (s *Simulator) inputOrds(name string) ([]int32, error) {
	i, ok := s.sc.inPort[name]
	if !ok {
		return nil, fmt.Errorf("rtl: no input port %q", name)
	}
	return s.sc.inOrd[i], nil
}

func (s *Simulator) setInputValue(name string, mask, value uint64, wide string) error {
	ords, err := s.inputOrds(name)
	if err != nil {
		return err
	}
	if len(ords) > 64 {
		return fmt.Errorf("rtl: input %q wider than 64 bits, use %s", name, wide)
	}
	for bit, ord := range ords {
		s.drive(ord, mask, value>>uint(bit)&1 != 0)
	}
	return nil
}

func (s *Simulator) setInputBytes(name string, mask uint64, bits []byte) error {
	ords, err := s.inputOrds(name)
	if err != nil {
		return err
	}
	if want := (len(ords) + 7) / 8; len(bits) != want {
		return fmt.Errorf("rtl: input %q needs %d bytes for %d bits, got %d bytes", name, want, len(ords), len(bits))
	}
	for bit, ord := range ords {
		s.drive(ord, mask, bits[bit/8]>>(uint(bit)%8)&1 != 0)
	}
	return nil
}

// drive sets the lanes selected by mask of input ordinal ord to v.
func (s *Simulator) drive(ord int32, mask uint64, v bool) {
	if w := s.inputs[ord]&^mask | logic.Word(v)&mask; s.inputs[ord] != w {
		s.inputs[ord] = w
		s.stimDirty = true
	}
}

// presentState drives register and synchronous-ROM state onto their AIG
// pseudo-inputs (asynchronous ROM outputs are resolved during Eval) and
// reports whether any presented lane word moved.
func (s *Simulator) presentState() bool {
	moved := false
	for i, ords := range s.sc.regOrd {
		for bit, ord := range ords {
			if w := s.regQ[i][bit]; s.inputs[ord] != w {
				s.inputs[ord] = w
				moved = true
			}
		}
	}
	for i := range s.d.b.roms {
		if s.d.b.roms[i].style == ROMSync {
			for bit, ord := range s.sc.romOrd[i] {
				if w := s.romQ[i][bit]; s.inputs[ord] != w {
					s.inputs[ord] = w
					moved = true
				}
			}
		}
	}
	return moved
}

// gather reads ROM ri through its EDAC store at the per-lane address the
// last evaluation left on its address literals.
func (s *Simulator) gather(ri int) [8]uint64 {
	var addr [8]uint64
	for bit, l := range s.d.b.roms[ri].addr {
		addr[bit] = logic.LitValue(s.values, l)
	}
	return s.roms[ri].Gather(&addr)
}

// Eval propagates inputs and current state through the combinational logic
// on all lanes, resolving asynchronous ROM reads per lane. It does not
// advance the clock.
func (s *Simulator) Eval() {
	if s.compiled {
		s.evalCompiled()
		return
	}
	b := s.d.b
	s.presentState()
	// Resolve asynchronous ROM reads level by level: after each evaluation
	// pass, every ROM whose address cone is already valid (level == pass)
	// latches its per-lane read data onto its output pseudo-inputs, and the
	// AIG is re-evaluated. A final pass propagates the last level's outputs.
	for lvl := 0; lvl <= s.d.maxROMLevel; lvl++ {
		b.aig.EvalInto(s.inputs, s.values)
		for ri := range b.roms {
			if s.d.romLevels[ri] != lvl {
				continue
			}
			data := s.gather(ri)
			for bit, ord := range s.sc.romOrd[ri] {
				s.inputs[ord] = data[bit]
			}
		}
	}
	b.aig.EvalInto(s.inputs, s.values)
}

// evalCompiled is Eval on the instruction tape: one segmented sweep in
// node-id order, gathering each asynchronous ROM exactly when the sweep
// reaches its first output pseudo-input (its address cone is then already
// resolved, because a ROM's outputs are created after its address
// literals). That keeps one EDAC Gather per async ROM per call — the
// interpreter's correction-counter contract — while evaluating every node
// once instead of the interpreter's maxROMLevel+2 whole-AIG passes. When
// nothing moved at all since the previous Eval (the driver's
// Eval-then-Step pattern re-evaluates an unchanged circuit every cycle) the
// tape is skipped entirely and only the gathers run; a gather whose data
// moved (a struck or scrubbed ROM word) resumes the sweep at that ROM's
// outputs. Nodes are not gated individually (see logic.Compiled.EvalRange).
func (s *Simulator) evalCompiled() {
	sc := s.sc
	dirty := s.presentState() || s.stimDirty
	s.stimDirty = false
	pos := 0
	for _, seg := range sc.segs {
		if dirty {
			sc.tape.EvalRange(pos, seg.boundary, s.inputs, s.values)
			pos = seg.boundary
		}
		data := s.gather(seg.rom)
		for bit, ord := range sc.romOrd[seg.rom] {
			if s.inputs[ord] != data[bit] {
				// Quiescent inputs but moved read data: the store was damaged
				// (or scrubbed) since the last Eval. Evaluation resumes at
				// this ROM's outputs; the skipped prefix provably held still.
				if !dirty {
					dirty = true
					pos = seg.boundary
				}
				s.inputs[ord] = data[bit]
			}
		}
	}
	if dirty {
		sc.tape.EvalRange(pos, sc.tape.NumNodes(), s.inputs, s.values)
	}
}

// Step runs one clock cycle: Eval, then latch registers and synchronous
// ROM output registers. Both latch per lane — a register bit's lane L only
// loads when the enable is high on lane L.
func (s *Simulator) Step() {
	s.Eval()
	b := s.d.b
	for i := range b.regs {
		r := &b.regs[i]
		en := logic.LitValue(s.values, r.en)
		if en == 0 {
			continue
		}
		q := s.regQ[i]
		for bit, l := range r.next {
			q[bit] = q[bit]&^en | logic.LitValue(s.values, l)&en
		}
	}
	for i := range b.roms {
		if b.roms[i].style == ROMSync {
			s.romQ[i] = s.gather(i)
		}
	}
	s.cycles++
}

// Lit returns the lane-0 value of an arbitrary literal after the last
// Eval/Step.
func (s *Simulator) Lit(l logic.Lit) bool {
	return logic.LitValue(s.values, l)&1 != 0
}

// LitWord returns the full lane word of an arbitrary literal after the
// last Eval/Step.
func (s *Simulator) LitWord(l logic.Lit) uint64 {
	return logic.LitValue(s.values, l)
}

// Output reads an output port as a little-endian value on lane 0 (ports up
// to 64 bits).
func (s *Simulator) Output(name string) (uint64, error) {
	return s.OutputLane(name, 0)
}

// outputBus resolves an output port name to its literals.
func (s *Simulator) outputBus(name string) (Bus, error) {
	i, ok := s.sc.outPort[name]
	if !ok {
		return nil, fmt.Errorf("rtl: no output port %q", name)
	}
	return s.d.b.outputs[i].bus, nil
}

// OutputLane reads an output port as a little-endian value on one lane.
func (s *Simulator) OutputLane(name string, lane int) (uint64, error) {
	if err := checkLane(lane); err != nil {
		return 0, err
	}
	bus, err := s.outputBus(name)
	if err != nil {
		return 0, err
	}
	if len(bus) > 64 {
		return 0, fmt.Errorf("rtl: output %q wider than 64 bits, use OutputBits", name)
	}
	var v uint64
	for bit, l := range bus {
		v |= logic.LitValue(s.values, l) >> uint(lane) & 1 << uint(bit)
	}
	return v, nil
}

// OutputBits reads an output port into packed bytes on lane 0.
func (s *Simulator) OutputBits(name string) ([]byte, error) {
	return s.OutputBitsLane(name, 0)
}

// OutputBitsLane reads an output port into packed bytes on one lane.
func (s *Simulator) OutputBitsLane(name string, lane int) ([]byte, error) {
	if err := checkLane(lane); err != nil {
		return nil, err
	}
	bus, err := s.outputBus(name)
	if err != nil {
		return nil, err
	}
	bits := make([]byte, (len(bus)+7)/8)
	for bit, l := range bus {
		bits[bit/8] |= byte(logic.LitValue(s.values, l)>>uint(lane)&1) << (uint(bit) % 8)
	}
	return bits, nil
}

// OutputWords reads an output port as raw lane words: element i is the
// lane word of port bit i (bit L = lane L's value). This is the transposed
// view vectorized monitors use to compare all lanes in one pass.
func (s *Simulator) OutputWords(name string) ([]uint64, error) {
	bus, err := s.outputBus(name)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(bus))
	for bit, l := range bus {
		out[bit] = logic.LitValue(s.values, l)
	}
	return out, nil
}

// RegValue returns the lane-0 state of a named register as packed bytes,
// for debugging and waveform dumps.
func (s *Simulator) RegValue(name string) ([]byte, bool) {
	return s.RegValueLane(name, 0)
}

// RegValueLane returns one lane's state of a named register as packed
// bytes.
func (s *Simulator) RegValueLane(name string, lane int) ([]byte, bool) {
	if checkLane(lane) != nil {
		return nil, false
	}
	for i := range s.d.b.regs {
		if s.d.b.regs[i].name != name {
			continue
		}
		q := s.regQ[i]
		bits := make([]byte, (len(q)+7)/8)
		for bit, w := range q {
			if w>>uint(lane)&1 != 0 {
				bits[bit/8] |= 1 << (uint(bit) % 8)
			}
		}
		return bits, true
	}
	return nil, false
}
