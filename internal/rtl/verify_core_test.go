package rtl_test

import (
	"strings"
	"testing"

	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

// TestVerifyCatchesFlipInEncryptCore plants one mask-bit flip in a LUT of
// the paper's Encrypt core whose output feeds another LUT, so the
// corruption sits in the fan-in of a LUT the clean sweep proves equal to
// its AIG node. The sweep must stop merging at the corrupted LUT and
// everything it reaches, and report the mismatch; outside -short mode the
// failing obligation must be the one the whole-netlist oracle names.
func TestVerifyCatchesFlipInEncryptCore(t *testing.T) {
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Design.SynthesizeTracked(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := res.Verify(200000)
	if err != nil {
		t.Fatal(err)
	}
	nl := res.Netlist
	if clean.Merged != len(nl.LUTs) {
		t.Fatalf("clean sweep merged %d of %d LUTs", clean.Merged, len(nl.LUTs))
	}
	const victim = 700
	if nl.Fanout(nl.LUTs[victim].Out) == 0 {
		t.Fatalf("LUT %d drives nothing; pick a LUT inside some class's fan-in", victim)
	}
	nl.LUTs[victim].Mask ^= 1
	rep, err := res.Verify(200000)
	if err == nil || !strings.Contains(err.Error(), "synthesis mismatch at obligation") {
		t.Fatalf("corrupted LUT %d: err = %v", victim, err)
	}
	if rep.Merged >= clean.Merged {
		t.Errorf("corrupted sweep merged %d LUTs, clean merged %d", rep.Merged, clean.Merged)
	}
	t.Logf("clean %+v; corrupted %+v: %v", clean, rep, err)
	if testing.Short() {
		return
	}
	want, werr := res.OracleVerify(200000)
	if werr == nil || werr.Error() != err.Error() || want.Proved != rep.Proved {
		t.Errorf("oracle %+v, %v; swept %+v, %v", want, werr, rep, err)
	}
}
