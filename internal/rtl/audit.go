package rtl

import "fmt"

// AuditCompiled statically verifies the design's compiled evaluation
// schedule — the AIG instruction tape plus the segmented ROM-gather plan —
// without executing it. On top of the per-node tape obligations proved by
// logic.Net.AuditCompiled, the schedule-level audit checks that
//
//   - register and ROM state presentation, and input-port stimulus, use
//     the exact input ordinals of the corresponding pseudo-input literals,
//     and every port name is bound to its declared port index;
//   - there is exactly one gather segment per asynchronous ROM (the EDAC
//     correction-counter contract) and none for synchronous ROMs;
//   - segments follow ROM declaration order with strictly increasing
//     boundaries, each boundary being the node id of the ROM's first
//     output pseudo-input;
//   - every node in a ROM's address cone lies strictly below its segment
//     boundary, so the sweep has fully resolved the address before the
//     gather runs, and every output pseudo-input lies at or above it.
//
// The schedule is compiled on first use if needed. Findings are localized
// messages; an empty slice means the schedule is a faithful linearization
// of the interpreted evaluation.
func (d *Design) AuditCompiled() []string {
	sc := d.compiledSched()
	b := d.b
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	for _, msg := range b.aig.AuditCompiled(sc.tape) {
		out = append(out, "tape: "+msg)
	}

	// State-presentation and stimulus ordinals.
	auditOrds := func(kind, name string, got []int32, bus Bus) {
		if len(got) != len(bus) {
			fail("%s %s: %d ordinals for %d bits", kind, name, len(got), len(bus))
			return
		}
		for bit, l := range bus {
			if want := int32(b.aig.InputOrdinal(l)); got[bit] != want {
				fail("%s %s[%d]: bound to input ordinal %d, pseudo-input is ordinal %d", kind, name, bit, got[bit], want)
			}
		}
	}
	for i := range b.regs {
		auditOrds("register", b.regs[i].name, sc.regOrd[i], b.regs[i].q)
	}
	for i := range b.roms {
		auditOrds("ROM output", b.roms[i].name, sc.romOrd[i][:], b.roms[i].out)
	}
	auditPorts := func(kind string, index map[string]int, ports []port) {
		if len(index) != len(ports) {
			fail("%s ports: %d bound names for %d ports", kind, len(index), len(ports))
		}
		for i, p := range ports {
			if got, ok := index[p.name]; !ok || got != i {
				fail("%s port %s: bound to port index %d (present %v), declared at %d", kind, p.name, got, ok, i)
			}
		}
	}
	auditPorts("input", sc.inPort, b.inputs)
	auditPorts("output", sc.outPort, b.outputs)
	for i, p := range b.inputs {
		auditOrds("input", p.name, sc.inOrd[i], p.bus)
	}

	// Gather plan: declaration order, one segment per async ROM, boundaries
	// at the first output pseudo-input and strictly increasing.
	segOf := make([]int, len(b.roms))
	for i := range segOf {
		segOf[i] = -1
	}
	prevROM, prevBoundary := -1, 0
	for si, seg := range sc.segs {
		if seg.rom < 0 || seg.rom >= len(b.roms) {
			fail("segment %d: ROM index %d out of range", si, seg.rom)
			continue
		}
		r := &b.roms[seg.rom]
		if r.style != ROMAsync {
			fail("segment %d: ROM %s is %s, only asynchronous ROMs are gathered in the sweep", si, r.name, r.style)
		}
		if segOf[seg.rom] >= 0 {
			fail("segment %d: ROM %s already gathered by segment %d: the EDAC contract is one gather per Eval", si, r.name, segOf[seg.rom])
		}
		segOf[seg.rom] = si
		if seg.rom <= prevROM {
			fail("segment %d: ROM %s out of declaration order (after ROM index %d)", si, r.name, prevROM)
		}
		prevROM = seg.rom
		if want := int(r.out[0].Node()); seg.boundary != want {
			fail("segment %d: boundary %d, ROM %s's first output pseudo-input is node %d", si, seg.boundary, r.name, want)
		}
		if si > 0 && seg.boundary <= prevBoundary {
			fail("segment %d: boundary %d does not increase past %d", si, seg.boundary, prevBoundary)
		}
		prevBoundary = seg.boundary
		// Address resolved before the gather: the whole address cone lies
		// strictly below the boundary. The tape audit proves every operand
		// precedes its node, so an address literal is the highest node of
		// its own cone and checking the literals covers the cone.
		for bit, l := range r.addr {
			if int(l.Node()) >= seg.boundary {
				fail("segment %d: ROM %s addr[%d] is n%d at/after boundary %d: gather would read an unresolved address",
					si, r.name, bit, l.Node(), seg.boundary)
			}
		}
		for bit, l := range r.out {
			if int(l.Node()) < seg.boundary {
				fail("segment %d: ROM %s out[%d] is n%d below boundary %d: the sweep would overtake the gather",
					si, r.name, bit, l.Node(), seg.boundary)
			}
		}
	}
	for i := range b.roms {
		if b.roms[i].style == ROMAsync && segOf[i] < 0 {
			fail("ROM %s: asynchronous but never gathered by any segment", b.roms[i].name)
		}
	}
	return out
}
