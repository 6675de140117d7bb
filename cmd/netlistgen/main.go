// Command netlistgen runs the synthesis flow for a chosen core variant and
// writes the technology-mapped netlist as structural Verilog or BLIF —
// the soft-IP deliverable form of the paper ("a soft IP description of
// Rijndael"), ready for downstream tools.
//
//	netlistgen -variant encrypt -device acex -format verilog -out aes128.v
//	netlistgen -variant both -device cyclone -format blif -out aes128.blif
//	netlistgen -verify   # additionally SAT-prove the netlist against the RTL
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rijndaelip"
	"rijndaelip/internal/dft"
	"rijndaelip/internal/obs"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "netlistgen: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	variantName := flag.String("variant", "encrypt", "encrypt, decrypt or both")
	deviceName := flag.String("device", "acex", "acex or cyclone (selects the S-box style)")
	format := flag.String("format", "verilog", "verilog or blif")
	out := flag.String("out", "", "output file (default stdout)")
	verify := flag.Bool("verify", false, "SAT-prove the netlist equivalent to the RTL before writing")
	scan := flag.Bool("scan", false, "insert a full scan chain (scan_en/scan_in/scan_out) before writing")
	atpg := flag.Bool("atpg", false, "run stuck-at ATPG and report fault coverage (implies -scan)")
	flag.Parse()

	var variant rijndaelip.Variant
	switch strings.ToLower(*variantName) {
	case "encrypt", "enc":
		variant = rijndaelip.Encrypt
	case "decrypt", "dec":
		variant = rijndaelip.Decrypt
	case "both":
		variant = rijndaelip.Both
	default:
		fail("unknown variant %q", *variantName)
	}
	style := rtl.ROMAsync
	switch strings.ToLower(*deviceName) {
	case "acex", "acex1k":
	case "cyclone":
		style = rtl.ROMLogic
	default:
		fail("unknown device %q", *deviceName)
	}

	core, err := rijndael.New(rijndael.Config{Variant: variant, ROMStyle: style})
	if err != nil {
		fail("%v", err)
	}
	res, err := core.Design.SynthesizeTracked(techmap.Options{})
	if err != nil {
		fail("%v", err)
	}
	if *verify {
		c0 := obs.CPUSeconds()
		rep, err := res.Verify(500000)
		if err != nil {
			fail("formal verification FAILED: %v", err)
		}
		fmt.Fprintf(os.Stderr, "netlistgen: formally proved %d/%d obligations (%d undecided; %d LUTs merged, %d SAT calls, %.3f CPU s)\n",
			rep.Proved, rep.Obligations, len(rep.Undecided), rep.Merged, rep.SATCalls, obs.CPUSeconds()-c0)
	}

	out2 := res.Netlist
	if *scan || *atpg {
		scanned, err := dft.InsertScan(res.Netlist)
		if err != nil {
			fail("%v", err)
		}
		out2 = scanned
		fmt.Fprintf(os.Stderr, "netlistgen: scan chain inserted through %d flip-flops\n", len(scanned.FFs))
	}
	if *atpg {
		r, err := dft.Generate(out2, 200000)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "netlistgen: ATPG %d faults, %d detected, %d redundant, %d aborted, %.2f%% coverage, %d deterministic patterns\n",
			r.TotalFaults, r.Detected, r.Redundant, r.Aborted, r.Coverage(), len(r.Patterns))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	switch strings.ToLower(*format) {
	case "verilog", "v":
		err = out2.WriteVerilog(w)
	case "blif":
		err = out2.WriteBLIF(w)
	default:
		fail("unknown format %q", *format)
	}
	if err != nil {
		fail("%v", err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "netlistgen: wrote %s (%d LUTs, %d FFs, %d ROMs)\n",
			*out, out2.NumLUTs(), out2.NumFFs(), len(out2.ROMs))
	}
}
