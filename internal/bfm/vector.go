package bfm

import (
	"fmt"

	"rijndaelip/internal/logic"
	"rijndaelip/internal/rijndael"
)

// Lanes is the number of independent simulation lanes one device model
// carries (re-exported from internal/logic so engine-level callers don't
// reach into the AIG layer).
const Lanes = logic.Lanes

// VectorSim extends Sim with per-lane stimulus and observation. Both
// cycle-accurate simulators (rtl.Simulator and netlist.Simulator) satisfy
// it: their state is stored as lane words, so driving lanes individually
// costs nothing extra — the scalar Sim methods are just the broadcast
// special case.
type VectorSim interface {
	Sim
	SetInputLane(name string, lane int, value uint64) error
	SetInputBitsLane(name string, lane int, bits []byte) error
	OutputLane(name string, lane int) (uint64, error)
	OutputBitsLane(name string, lane int) ([]byte, error)
	OutputWords(name string) ([]uint64, error)
}

// VectorDriver drives up to Lanes independent blocks through one simulated
// device in a single protocol transaction. It transposes the jobs into
// per-lane stimulus (block b's byte stream becomes lane b of the din
// words), runs the one 50-cycle sequence all lanes share in lockstep, and
// de-transposes the dout words back into per-job results. The embedded
// scalar Driver remains fully usable on the same simulator: its broadcast
// writes simply set all lanes alike.
//
// The lockstep works because the core's control FSM depends only on the
// control pins (setup/wr_key/wr_data/encdec), which the driver always
// broadcasts: every lane marches through the identical busy/data_ok
// schedule, only the data path (din, key, dout) diverges per lane.
type VectorDriver struct {
	*Driver
	VSim VectorSim
}

// NewVector builds a fresh simulator for a Rijndael IP core and returns a
// vector driver over it.
func NewVector(core *rijndael.Core) *VectorDriver {
	v, err := AsVector(New(core))
	if err != nil {
		// core.Design.NewSimulator() is an *rtl.Simulator, which always
		// satisfies VectorSim.
		panic(err)
	}
	return v
}

// AsVector wraps an existing driver whose simulator supports per-lane
// access (both the RTL and post-synthesis netlist simulators do).
func AsVector(d *Driver) (*VectorDriver, error) {
	vs, ok := d.Sim.(VectorSim)
	if !ok {
		return nil, fmt.Errorf("bfm: simulator %T does not support lanes", d.Sim)
	}
	return &VectorDriver{Driver: d, VSim: vs}, nil
}

// driveLanes broadcasts blocks[0] on a port and then overrides lanes
// 1..len(blocks)-1, so unused lanes carry lane 0's data (harmless: their
// results are never read back).
func (v *VectorDriver) driveLanes(port string, blocks [][]byte) error {
	if err := v.Sim.SetInputBits(port, blocks[0]); err != nil {
		return err
	}
	for lane := 1; lane < len(blocks); lane++ {
		if err := v.VSim.SetInputBitsLane(port, lane, blocks[lane]); err != nil {
			return err
		}
	}
	return nil
}

// LoadKeys runs the configuration sequence once with a different key on
// every lane: keys[L] is loaded into lane L's key schedule. All keys must
// be the same length (16, or 32 on an AES-256 core) and len(keys) must be
// in [1, Lanes]; lanes beyond len(keys) receive keys[0]. It returns the
// cycles consumed (the same count a scalar LoadKey spends — the lanes pay
// it once, together).
func (v *VectorDriver) LoadKeys(keys [][]byte) (int, error) {
	if len(keys) == 0 || len(keys) > Lanes {
		return 0, fmt.Errorf("bfm: need 1..%d keys, got %d", Lanes, len(keys))
	}
	kl := len(keys[0])
	if kl != 16 && kl != 32 {
		return 0, fmt.Errorf("bfm: key must be 16 or 32 bytes, got %d", kl)
	}
	for i, k := range keys {
		if len(k) != kl {
			return 0, fmt.Errorf("bfm: key %d is %d bytes, want %d", i, len(k), kl)
		}
	}
	cycles := 0
	for beat := 0; beat < kl/16; beat++ {
		v.clearControl()
		v.Sim.SetInput("setup", 1)
		v.Sim.SetInput("wr_key", 1)
		beats := make([][]byte, len(keys))
		for i, k := range keys {
			beats[i] = k[16*beat : 16*beat+16]
		}
		if err := v.driveLanes("din", beats); err != nil {
			return 0, err
		}
		v.Sim.Step()
		cycles++
	}
	v.clearControl()
	for i := 0; i < v.DUT.KeySetupCycles; i++ {
		v.Sim.Step()
		cycles++
	}
	return cycles, nil
}

// ProcessVector pushes up to Lanes blocks through the device in one
// protocol transaction — blocks[L] rides lane L — and waits until every
// used lane reports data_ok. It returns the per-lane output blocks and the
// latency in cycles from the wr_data edge to completion. The cycle cost is
// that of a single scalar Process, whatever len(blocks) is: this is the
// whole point of the lane machinery.
func (v *VectorDriver) ProcessVector(blocks [][]byte, encrypt bool) ([][]byte, int, error) {
	if len(blocks) == 0 || len(blocks) > Lanes {
		return nil, 0, fmt.Errorf("bfm: need 1..%d blocks, got %d", Lanes, len(blocks))
	}
	for i, b := range blocks {
		if len(b) != 16 {
			return nil, 0, fmt.Errorf("bfm: block %d must be 16 bytes, got %d", i, len(b))
		}
	}
	if err := v.setDirection(encrypt); err != nil {
		return nil, 0, err
	}
	v.clearControl()
	v.Sim.SetInput("wr_data", 1)
	if err := v.driveLanes("din", blocks); err != nil {
		return nil, 0, err
	}
	v.Sim.Step() // load edge
	v.clearControl()
	used := usedMask(len(blocks))
	cycles := 0
	for {
		v.Sim.Eval()
		okw, err := v.VSim.OutputWords("data_ok")
		if err != nil {
			return nil, 0, err
		}
		if okw[0]&used == used {
			outs, err := v.readLanes("dout", len(blocks))
			if err != nil {
				return nil, 0, err
			}
			if v.AssertLatency && v.DUT.BlockLatency > 0 && cycles != v.DUT.BlockLatency {
				return outs, cycles, fmt.Errorf("%w: data_ok after %d cycles, expected %d on %s",
					ErrLatency, cycles, v.DUT.BlockLatency, v.DUT.Name)
			}
			return outs, cycles, nil
		}
		if cycles >= v.Timeout {
			return nil, cycles, fmt.Errorf("%w: watchdog expired after %d cycles on %s",
				ErrTimeout, cycles, v.DUT.Name)
		}
		v.Sim.Step()
		cycles++
	}
}

// readLanes reads a port as lane words in one call and de-transposes the
// first n lanes into packed bytes, eight port bits (one byte of every
// lane) at a time.
func (v *VectorDriver) readLanes(port string, n int) ([][]byte, error) {
	words, err := v.VSim.OutputWords(port)
	if err != nil {
		return nil, err
	}
	nb := (len(words) + 7) / 8
	outs := make([][]byte, n)
	buf := make([]byte, n*nb)
	for lane := range outs {
		outs[lane] = buf[lane*nb : (lane+1)*nb : (lane+1)*nb]
	}
	for k := 0; k < nb; k++ {
		var m [8]uint64
		copy(m[:], words[8*k:])
		lanes := logic.LaneBytes(&m)
		for lane, out := range outs {
			out[k] = lanes[lane]
		}
	}
	return outs, nil
}

// usedMask returns the lane mask with the low n lanes set.
func usedMask(n int) uint64 {
	if n >= Lanes {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// CloneVector is Clone returning a vector driver: a fresh cycle-accurate
// simulation with the factory key loaded (broadcast across all lanes, so
// any subset of lanes can process blocks under it).
func (f *KeyedFactory) CloneVector() (*VectorDriver, int, error) {
	d, cycles, err := f.Clone()
	if err != nil {
		return nil, 0, err
	}
	v, err := AsVector(d)
	if err != nil {
		return nil, 0, err
	}
	return v, cycles, nil
}

// CloneSim runs the factory's key-load sequence over a caller-built
// simulation of the same core — a post-synthesis netlist simulator, a
// lockstep pair wrapping one, or any other Sim — and returns the keyed
// driver. The package stays decoupled from any particular simulator
// implementation: the caller owns construction, the factory owns the bus
// protocol. This is the hot-respawn building block a self-healing engine
// uses to stamp out a replacement for a quarantined shard.
func (f *KeyedFactory) CloneSim(sim Sim) (*Driver, int, error) {
	d := NewPostSynthesis(f.core, sim)
	cycles, err := d.LoadKey(f.key)
	if err != nil {
		return nil, 0, err
	}
	return d, cycles, nil
}

// CloneVectorSim is CloneSim returning a vector driver; the supplied
// simulator must support per-lane access (satisfy VectorSim).
func (f *KeyedFactory) CloneVectorSim(sim Sim) (*VectorDriver, int, error) {
	d, cycles, err := f.CloneSim(sim)
	if err != nil {
		return nil, 0, err
	}
	v, err := AsVector(d)
	if err != nil {
		return nil, 0, err
	}
	return v, cycles, nil
}
