package logic

import "encoding/binary"

// Lane/word data layout
//
// Every value flowing through Eval/EvalInto is a uint64 *lane word*: bit L
// of the word carries the value of independent simulation lane L, so one
// AIG sweep evaluates Lanes parallel patterns at the cost of one. The
// cycle-accurate simulators built on top (internal/rtl, internal/netlist)
// keep their whole sequential state in the same layout — a W-bit register
// is W lane words, one per register bit — which turns a single simulated
// device into a 64-lane SIMD machine: 64 independent blocks (or fault
// scenarios) ride through one sweep sequence in lockstep.
//
// A bus-level value for lane L is therefore *word-transposed*: bit b of
// the bus lives at bit L of word b, not packed contiguously. Word(v)
// broadcasts a scalar across all lanes (the layout every scalar API uses),
// LaneBytes/LaneWords convert eight lane words to and from one byte per
// lane with 8x8 bit-matrix transposes, and GatherROM, built on them, is
// the raw per-lane gather primitive over a 256-byte table. The simulators
// do not call it on ROM contents directly: each ROM macro's words sit
// behind an EDAC (SECDED) code in internal/edac, whose store decodes —
// correcting single-bit errors and counting the event — into a
// post-correction byte table and hands *that* table to GatherROM.
// ROM contents are not lane-resolved: the store is physical memory shared
// by every lane, so a faulted word reads the same (corrected or, for
// multi-bit damage, raw) value on all lanes that address it.

// Lanes is the simulation lane count: the pattern width of one uint64
// sweep word.
const Lanes = 64

// Word broadcasts a scalar bit across all lanes.
func Word(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// GatherROM performs a per-lane 256x8 table read: addr holds the 8
// word-transposed address bits, and the result holds the 8 word-transposed
// data bits, where each lane L reads contents[addr_L] independently. The
// contents array is the *decoded* view an edac.ROM store maintains — words
// needing single-bit correction have already been corrected by the code
// before they land here, so this fast path never sees a raw faulty bit
// (stores with faulty words take the counting slow path in edac instead).
// When every address word is lane-uniform (the scalar broadcast case) a
// single table lookup is broadcast. Otherwise the address words are
// transposed into 64 address bytes (LaneBytes), each lane's byte is looked
// up, and the 64 data bytes are transposed back into data words
// (LaneWords): two byte-matrix and sixteen bit-matrix transposes in place
// of the 1 024 single-bit moves (64 lanes × 16 bits) of a lane-by-lane
// gather.
func GatherROM(contents *[256]byte, addr *[8]uint64) [8]uint64 {
	var out [8]uint64
	a0 := 0
	for bit, w := range addr {
		switch w {
		case 0:
		case ^uint64(0):
			a0 |= 1 << uint(bit)
		default:
			return gatherLanes(contents, addr)
		}
	}
	w := contents[a0]
	for bit := range out {
		out[bit] = Word(w>>uint(bit)&1 != 0)
	}
	return out
}

func gatherLanes(contents *[256]byte, addr *[8]uint64) [8]uint64 {
	var data [Lanes]byte
	for lane, a := range LaneBytes(addr) {
		data[lane] = contents[a]
	}
	return LaneWords(&data)
}

// LaneBytes de-transposes eight lane words into one byte per lane: bit b
// of byte L is bit L of w[b]. A byte-matrix transpose first collects byte
// g of every word into one word, an 8x8 bit matrix (row b = bit b, column
// j = lane 8g+j) whose bit transpose holds lanes 8g..8g+7 as bytes.
func LaneBytes(w *[8]uint64) [Lanes]byte {
	var out [Lanes]byte
	m := *w
	transposeBytes(&m)
	for g, x := range m {
		binary.LittleEndian.PutUint64(out[8*g:], transpose8(x))
	}
	return out
}

// LaneWords is the inverse of LaneBytes: bit L of word b is bit b of
// lane L's byte.
func LaneWords(lanes *[Lanes]byte) [8]uint64 {
	var m [8]uint64
	for g := range m {
		m[g] = transpose8(binary.LittleEndian.Uint64(lanes[8*g:]))
	}
	transposeBytes(&m)
	return m
}

// transposeBytes transposes the 8x8 byte matrix whose row r is w[r] (byte
// c of w[r] moves to byte r of w[c]) by swapping 4-, 2- and 1-byte blocks.
func transposeBytes(w *[8]uint64) {
	for _, st := range [3]struct {
		n    uint
		mask uint64
	}{{4, 0x00000000FFFFFFFF}, {2, 0x0000FFFF0000FFFF}, {1, 0x00FF00FF00FF00FF}} {
		for r := uint(0); r < 8; r++ {
			if r&st.n == 0 {
				t := (w[r]>>(8*st.n) ^ w[r+st.n]) & st.mask
				w[r] ^= t << (8 * st.n)
				w[r+st.n] ^= t
			}
		}
	}
}

// transpose8 transposes an 8x8 bit matrix held in one word, byte r being
// row r and bit c of that byte column c: bit 8r+c moves to bit 8c+r
// (Hacker's Delight, 7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}
