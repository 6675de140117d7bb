package logic_test

import (
	"math/rand"
	"testing"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/logic"
)

// gatherPerLane is the reference gather: one table read per lane, address
// and data bits moved one at a time.
func gatherPerLane(contents *[256]byte, addr *[8]uint64) [8]uint64 {
	var out [8]uint64
	for lane := 0; lane < logic.Lanes; lane++ {
		a := 0
		for bit := 0; bit < 8; bit++ {
			a |= int(addr[bit]>>uint(lane)&1) << uint(bit)
		}
		w := uint64(contents[a])
		for bit := 0; bit < 8; bit++ {
			out[bit] |= (w >> uint(bit) & 1) << uint(lane)
		}
	}
	return out
}

// randAddr draws address words of three shapes: every word random, every
// word lane-uniform (the scalar broadcast case), or a random mix of both.
func randAddr(r *rand.Rand, shape int) [8]uint64 {
	var addr [8]uint64
	for bit := range addr {
		uniform := shape == 1 || shape == 2 && r.Intn(2) == 0
		if uniform {
			addr[bit] = logic.Word(r.Intn(2) == 0)
		} else {
			addr[bit] = r.Uint64()
		}
	}
	return addr
}

// TestGatherROMMatchesPerLane checks the transposed gather against the
// per-lane reference on random, fully uniform and partly uniform address
// words, directly and through a fault-free EDAC store.
func TestGatherROMMatchesPerLane(t *testing.T) {
	r := rand.New(rand.NewSource(0x6a7))
	var contents [256]byte
	for i := range contents {
		contents[i] = byte(r.Intn(256))
	}
	store := edac.New("rom", contents)
	for i := 0; i < 6000; i++ {
		shape := i % 3
		addr := randAddr(r, shape)
		want := gatherPerLane(&contents, &addr)
		if got := logic.GatherROM(&contents, &addr); got != want {
			t.Fatalf("shape %d, addr %#x: GatherROM %#x, per-lane %#x", shape, addr, got, want)
		}
		if got := store.Gather(&addr); got != want {
			t.Fatalf("shape %d, addr %#x: edac Gather %#x, per-lane %#x", shape, addr, got, want)
		}
	}
	if st := store.Stats(); st != (edac.Stats{}) {
		t.Fatalf("fault-free store counted events: %+v", st)
	}
}

// TestLaneBytesRoundTrip checks LaneBytes against a per-bit reading of
// the lane words, and LaneWords as its inverse.
func TestLaneBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(0x1b))
	for i := 0; i < 1000; i++ {
		w := randAddr(r, i%3)
		got := logic.LaneBytes(&w)
		for lane, v := range got {
			for bit := range w {
				if want := byte(w[bit]>>uint(lane)&1) << uint(bit); v&(1<<uint(bit)) != want {
					t.Fatalf("words %#x: lane %d byte %#x disagrees at bit %d", w, lane, v, bit)
				}
			}
		}
		if back := logic.LaneWords(&got); back != w {
			t.Fatalf("LaneWords(LaneBytes(%#x)) = %#x", w, back)
		}
	}
}

var gatherSink [8]uint64

// BenchmarkGatherROM compares the per-lane reference gather with the
// transposed GatherROM on 64 random lane addresses.
func BenchmarkGatherROM(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var contents [256]byte
	for i := range contents {
		contents[i] = byte(r.Intn(256))
	}
	addr := randAddr(r, 0)
	for _, impl := range []struct {
		name string
		fn   func(*[256]byte, *[8]uint64) [8]uint64
	}{
		{"perlane", gatherPerLane},
		{"transposed", logic.GatherROM},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gatherSink = impl.fn(&contents, &addr)
			}
		})
	}
}
