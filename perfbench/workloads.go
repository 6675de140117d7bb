package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rijndaelip"
	"rijndaelip/internal/aes"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/modes"
)

// workload is one set of inputs the benchmark runs. Every workload has the
// same phases — set-up, a closed-loop traffic window, a Table 2 phase and an
// equivalence sign-off — so that every end-to-end metric exists on every
// workload; the sizes and the engine configuration are what make each one
// stress a different layer (see README.md).
type workload struct {
	name    string
	variant rijndaelip.Variant
	device  func() rijndaelip.Device
	// shards and clients shape the engine and the closed loop: each client
	// issues its next call only after the previous one returned.
	shards  int
	clients int
	// supervised arms CheckLockstep supervision with the default scrubber
	// and a seeded chaos injector at its default strike period.
	supervised bool
	// flow marks flow_signoff, whose Table 2 phase regenerates all six
	// cells and whose sign-off is the SAT proof. The engine workloads time
	// the Table 2 cell of the core they serve and audit the compiled tape
	// their shards execute.
	flow bool
	// trafficShare is the share of --seconds spent in the traffic window.
	trafficShare float64
	// pool is how many calls each client pre-generates and cycles through.
	pool int
	// gen makes call i of a client's pool, drawing its data from the
	// client's seeded generator. Message length and mode are stratified on
	// i, so every pool holds the same mix and its order is shuffled: the
	// seed changes the data and the order, not how much work a run does.
	gen func(rng *rand.Rand, i int) []op
}

// modeKind names the engine mode call an op issues.
type modeKind int

const (
	modeECB modeKind = iota
	modeCBCEnc
	modeCBCDec
	modeCTR
)

func (m modeKind) String() string {
	return [...]string{"ecb", "cbc_encrypt", "cbc_decrypt", "ctr"}[m]
}

// op is one engine mode call. src is what the engine receives (plaintext,
// or ciphertext for modeCBCDec); want is the reference output, and plain
// the plaintext a decryption must give back.
type op struct {
	mode  modeKind
	iv    []byte
	src   []byte
	want  []byte
	plain []byte
}

// lanes is the engines' lane packing (the default, full packing).
const lanes = bfm.Lanes

// blocks is the number of 16-byte blocks the op carries.
func (o *op) blocks() int { return len(o.src) / 16 }

// submissions is how many lane-packed engine submissions the op makes:
// CBC encryption chains, so it submits one block at a time.
func (o *op) submissions() int {
	if o.mode == modeCBCEnc {
		return o.blocks()
	}
	return (o.blocks() + lanes - 1) / lanes
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

var workloads = map[string]*workload{
	// One client, full 64-lane ECB calls sized so both shards have a
	// running and a queued submission: the evaluator and lane transpose
	// dominate and scheduling is amortized. One call in 20 carries 1024
	// blocks, so the p99 is the latency of those large calls, a property
	// of the engine, rather than of an incidental host stall.
	"ecb_bulk": {
		name: "ecb_bulk", variant: rijndaelip.Encrypt, device: rijndaelip.Acex1K,
		shards: 2, clients: 1, trafficShare: 1, pool: 20,
		gen: func(rng *rand.Rand, i int) []op {
			n := 2 * 2 * lanes
			if i%20 == 19 {
				n = 16 * lanes
			}
			return []op{{mode: modeECB, src: randBytes(rng, 16*n)}}
		},
	},
	// Two clients, each call a short CBC encryption (one lane per
	// submission) plus a short CBC decryption (lane-packed): per-submission
	// cost and the decrypt path dominate. One call in 16 encrypts 8 blocks,
	// for the same reason as the large calls of ecb_bulk.
	"cbc_session": {
		name: "cbc_session", variant: rijndaelip.Both, device: rijndaelip.Acex1K,
		shards: 2, clients: 2, trafficShare: 1, pool: 512,
		gen: func(rng *rand.Rand, i int) []op {
			n := 1 + i%2
			if i/32 == 15 {
				n = 8
			}
			enc := op{mode: modeCBCEnc, iv: randBytes(rng, 16), src: randBytes(rng, 16*n)}
			dec := op{mode: modeCBCDec, iv: randBytes(rng, 16), plain: randBytes(rng, 16*(1+i/2%16))}
			return []op{enc, dec}
		},
	},
	// Supervised lockstep engine on the largest netlist under seeded
	// transient strikes: CTR encryptions and CBC decryptions of seeded
	// lengths, one lane-packed submission each.
	"supervised_lockstep": {
		name: "supervised_lockstep", variant: rijndaelip.Both, device: rijndaelip.Cyclone,
		shards: 2, clients: 2, supervised: true, trafficShare: 1.9, pool: 256,
		gen: func(rng *rand.Rand, i int) []op {
			n := 16 * (1 + i%64)
			if i/64%2 == 0 {
				return []op{{mode: modeCTR, iv: randBytes(rng, 16), src: randBytes(rng, n)}}
			}
			return []op{{mode: modeCBCDec, iv: randBytes(rng, 16), plain: randBytes(rng, n)}}
		},
	},
	// The flow: all six Table 2 cells and the SAT sign-off of the
	// Encrypt/async-ROM core. A short single-shard sign-off traffic window
	// on the Encrypt core gives this workload its block-level metrics: one
	// transaction of 1 to 64 blocks per call, and one call in 16 of 256
	// blocks (four transactions), for the same reason as in ecb_bulk.
	"flow_signoff": {
		name: "flow_signoff", variant: rijndaelip.Encrypt, device: rijndaelip.Acex1K,
		shards: 1, clients: 1, flow: true, trafficShare: 0.5, pool: 256,
		gen: func(rng *rand.Rand, i int) []op {
			n := 1 + i%64
			if i%16 == 15 {
				n = 4 * lanes
			}
			return []op{{mode: modeECB, src: randBytes(rng, 16*n)}}
		},
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// expect fills in the reference side of an op from the software cipher:
// the expected output, and for a decryption the ciphertext it is given.
func expect(ref *aes.Cipher, o *op) error {
	var err error
	switch o.mode {
	case modeECB:
		o.want, err = modes.EncryptECB(ref, o.src)
	case modeCBCEnc:
		o.want, err = modes.EncryptCBC(ref, o.iv, o.src)
	case modeCBCDec:
		o.src, err = modes.EncryptCBC(ref, o.iv, o.plain)
		o.want = o.plain
	case modeCTR:
		o.want, err = modes.CTRStream(ref, o.iv, o.src)
	}
	return err
}

// issue makes the op's engine mode call.
func issue(ctx context.Context, eng *rijndaelip.Engine, o *op) ([]byte, error) {
	switch o.mode {
	case modeECB:
		return eng.EncryptECB(ctx, o.src)
	case modeCBCEnc:
		return eng.EncryptCBC(ctx, o.iv, o.src)
	case modeCBCDec:
		return eng.DecryptCBC(ctx, o.iv, o.src)
	case modeCTR:
		return eng.CTR(ctx, o.iv, o.src)
	}
	return nil, fmt.Errorf("unknown mode %d", o.mode)
}

// mismatches counts the 16-byte blocks of got that differ from want; an
// error or a short result fails every block of the op.
func mismatches(got, want []byte, err error) int {
	n := len(want) / 16
	if err != nil || len(got) != len(want) {
		return n
	}
	bad := 0
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[16*i:16*i+16], want[16*i:16*i+16]) {
			bad++
		}
	}
	return bad
}

// txn is one replayable core transaction: up to 64 blocks on the lanes of
// one protocol transaction, and the outputs the reference expects.
type txn struct {
	in      [][]byte
	want    [][]byte
	encrypt bool
}

// coreTxns reconstructs the transactions an op puts on the core: CBC
// encryption feeds P_i xor C_(i-1) one block at a time, CBC decryption the
// ciphertext, CTR the counter blocks; the lane-packed modes group 64 blocks.
func coreTxns(ref *aes.Cipher, o *op) []txn {
	n := o.blocks()
	in := make([][]byte, n)
	encrypt := o.mode != modeCBCDec
	switch o.mode {
	case modeECB, modeCBCDec:
		for i := range in {
			in[i] = o.src[16*i : 16*i+16]
		}
	case modeCBCEnc:
		prev := o.iv
		for i := range in {
			x := make([]byte, 16)
			for k := range x {
				x[k] = o.src[16*i+k] ^ prev[k]
			}
			in[i] = x
			prev = o.want[16*i : 16*i+16]
		}
	case modeCTR:
		ctr := append([]byte(nil), o.iv...)
		for i := range in {
			in[i] = append([]byte(nil), ctr...)
			for k := 15; k >= 0; k-- {
				ctr[k]++
				if ctr[k] != 0 {
					break
				}
			}
		}
	}
	group := lanes
	if o.mode == modeCBCEnc {
		group = 1
	}
	var out []txn
	for lo := 0; lo < n; lo += group {
		hi := min(lo+group, n)
		t := txn{in: in[lo:hi], encrypt: encrypt}
		for _, b := range t.in {
			w := make([]byte, 16)
			if encrypt {
				ref.Encrypt(w, b)
			} else {
				ref.Decrypt(w, b)
			}
			t.want = append(t.want, w)
		}
		out = append(out, t)
	}
	return out
}

// describe renders a workload's shape for the report.
func (w *workload) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s, %d shard(s), %d client(s)", w.variant, w.device().Name, w.shards, w.clients)
	if w.supervised {
		b.WriteString(", supervised lockstep with chaos strikes")
	}
	return b.String()
}
