package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rijndaelip"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/fpga"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/report"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
	"rijndaelip/internal/timing"
)

// replayTxns is how many of the traced window's core transactions are
// replayed through the benchmark's own timed drivers.
const replayTxns = 64

// span is one traced interval. Times are nanoseconds since the run began;
// Parent is the ID of the span that caused it (0 for a root) and Call the
// engine call it belongs to (0 outside calls).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Call   int    `json:"call"`
}

// callRec is one engine call of the traced window.
type callRec struct {
	id         int
	start, end int64
	subs       int     // submissions the call's ops make
	starts     []int64 // service starts attributed to the call
}

// recorder keeps a traced run's spans in memory. Its methods are safe on a
// nil recorder (the untraced run) and record nothing until armed.
type recorder struct {
	epoch time.Time
	armed atomic.Bool

	mu     sync.Mutex
	spans  []span
	starts []int64 // service-start stamps, ns since epoch
	calls  []*callRec
	ops    []op // the first calls' ops, for replay
	nTxns  int
}

func (rec *recorder) ns(t time.Time) int64 { return int64(t.Sub(rec.epoch)) }

// span records one interval and returns its ID.
func (rec *recorder) span(name string, start, end time.Time, parent, call int) int {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.add(span{Name: name, Start: rec.ns(start), End: rec.ns(end), Parent: parent, Call: call})
}

// add appends a span; rec.mu must be held.
func (rec *recorder) add(s span) int {
	s.ID = len(rec.spans) + 1
	rec.spans = append(rec.spans, s)
	return s.ID
}

// serviceStart is the engine hook: a shard is about to run a submission.
func (rec *recorder) serviceStart() {
	if rec == nil || !rec.armed.Load() {
		return
	}
	t := rec.ns(time.Now())
	rec.mu.Lock()
	rec.starts = append(rec.starts, t)
	rec.mu.Unlock()
}

// call records one engine call of the armed window.
func (rec *recorder) call(start, end time.Time, ops []op) {
	if rec == nil || !rec.armed.Load() {
		return
	}
	subs := 0
	for i := range ops {
		subs += ops[i].submissions()
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	c := &callRec{id: len(rec.calls) + 1, start: rec.ns(start), end: rec.ns(end), subs: subs}
	rec.calls = append(rec.calls, c)
	if rec.nTxns < replayTxns {
		rec.ops = append(rec.ops, ops...)
		rec.nTxns += subs
	}
}

// attribute assigns service starts to calls and adds the call, queue-wait
// and service spans. A start belongs to a call in flight at that instant
// that still has submissions outstanding; among several, the earliest
// started call takes it (first in, first served). With one client the
// assignment is exact; with two it can swap starts between overlapping
// calls. service is the replayed mean transaction time, the length given
// to each service span (the hooks see only when service begins).
func (rec *recorder) attribute(service int64) {
	sort.Slice(rec.starts, func(i, j int) bool { return rec.starts[i] < rec.starts[j] })
	sort.Slice(rec.calls, func(i, j int) bool { return rec.calls[i].start < rec.calls[j].start })
	next := 0
	var active []*callRec
	for _, t := range rec.starts {
		for next < len(rec.calls) && rec.calls[next].start <= t {
			active = append(active, rec.calls[next])
			next++
		}
		keep := active[:0]
		for _, c := range active {
			if c.end >= t && len(c.starts) < c.subs {
				keep = append(keep, c)
			}
		}
		active = keep
		if len(active) > 0 {
			active[0].starts = append(active[0].starts, t)
		}
	}
	for _, c := range rec.calls {
		id := rec.add(span{Name: "engine.call", Start: c.start, End: c.end, Call: c.id})
		if len(c.starts) > 0 {
			rec.add(span{Name: "engine.queue_wait", Start: c.start, End: c.starts[0], Parent: id, Call: c.id})
		}
		for _, s := range c.starts {
			rec.add(span{Name: "engine.service", Start: s, End: min(s+service, c.end), Parent: id, Call: c.id})
		}
	}
}

// selfTimes returns, for every span named name, its duration minus the
// part of its interval that its child spans cover.
func (rec *recorder) selfTimes(name string) []float64 {
	children := map[int][][2]int64{}
	for _, s := range rec.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range rec.spans {
		if s.Name != name {
			continue
		}
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered))
	}
	return out
}

// durations returns the durations in nanoseconds of the spans named name.
func (rec *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range rec.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// dump writes the spans as JSON lines when the run ends.
func (rec *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced runs the workload with spans recorded and sets the per-layer
// metrics. It measures the same traffic twice on one engine, first with the
// recorder disarmed and then armed, and reports the ratio as the tracing
// overhead.
func (r *runner) traced() error {
	rec := &recorder{epoch: r.epoch}
	// Set-up without and then with the hooks installed.
	_, plainEng, plainSt, err := r.setUp(nil)
	if err != nil {
		return err
	}
	plainEng.Close()
	impl, eng, st, err := r.setUp(rec)
	if err != nil {
		return err
	}
	defer eng.Close()

	baseVals := windowMetrics(impl, r.traffic(eng, nil))
	rec.armed.Store(true)
	t0 := time.Now()
	win := r.traffic(eng, rec)
	rec.armed.Store(false)
	rec.span("window", t0, time.Now(), 0, 0)
	vals := windowMetrics(impl, win)
	eng.Close()
	if err := r.replayLayers(impl, rec); err != nil {
		return err
	}
	r.engineLayer(win, rec)
	r.hostLayer(win)
	r.aesLayer(rec)

	untracedTable2, err := r.table2(impl, plainSt.cell)
	if err != nil {
		return err
	}
	tracedTable2, err := r.flowStages(rec)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, rep, err := r.equiv()
	if err != nil {
		return err
	}
	t1 := time.Now()
	rec.span("equiv.verify", t0, t1, 0, 0)
	r.res.set("equiv.verify_ms", float64(t1.Sub(t0))/1e6, "ms")
	r.res.set("equiv.obligations", float64(rep.Obligations), "count")
	r.res.set("equiv.proved", float64(rep.Proved), "count")
	r.res.set("equiv.undecided", float64(len(rep.Undecided)), "count")
	auditS, err := r.audit(impl)
	if err != nil {
		return err
	}
	r.res.set("tape.audit_ms", auditS*1e3, "ms")

	baseVals["setup_s"], vals["setup_s"] = plainSt.median(), st.median()
	baseVals["table2_s"], vals["table2_s"] = untracedTable2, tracedTable2
	for n, v := range vals {
		ratio := 0.0
		if b := baseVals[n]; b != 0 {
			ratio = v / b
		}
		r.res.set("trace.overhead."+n, ratio, "ratio")
	}
	path := filepath.Join(r.o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.wl.name, r.o.seed))
	if err := rec.dump(path); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	r.res.notes = append(r.res.notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
	return nil
}

// engineLayer sets the engine and supervisor metrics of the traced window.
func (r *runner) engineLayer(w *window, rec *recorder) {
	rec.attribute(int64(r.serviceNS))
	var waits []float64
	for _, c := range rec.calls {
		if len(c.starts) > 0 {
			waits = append(waits, float64(c.starts[0]-c.start)/1e3)
		}
	}
	r.res.set("engine.queue_wait_us_p50", percentile(waits, 0.50), "us")
	r.res.set("engine.queue_wait_us_p99", percentile(waits, 0.99), "us")
	r.res.samples["engine.queue_wait_us_p50"] = len(waits)
	r.res.samples["engine.queue_wait_us_p99"] = len(waits)
	r.res.set("engine.self_us_per_call", mean(rec.selfTimes("engine.call"))/1e3, "us")

	b, a := w.before, w.after
	d := func(x, y uint64) float64 { return float64(y - x) }
	var stolen uint64
	for i := range a.Shards {
		stolen += a.Shards[i].Stolen - b.Shards[i].Stolen
	}
	blocks := d(b.Blocks, a.Blocks)
	wasted := d(b.WastedLanes, a.WastedLanes)
	occ := 0.0
	if blocks+wasted > 0 {
		occ = blocks / (blocks + wasted)
	}
	subs := d(b.Submissions, a.Submissions)
	r.res.set("engine.submissions", subs, "count")
	r.res.set("engine.lane_occupancy", occ, "ratio")
	r.res.set("engine.stolen", float64(stolen), "count")
	r.res.set("engine.wasted_lanes", wasted, "count")

	det, inPlace := d(b.Detections, a.Detections), d(b.InPlaceRecoveries, a.InPlaceRecoveries)
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"detections", det},
		{"transients", d(b.Transients, a.Transients)},
		{"in_place_recoveries", inPlace},
		{"retries", d(b.Retries, a.Retries)},
		{"quarantines", d(b.Quarantines, a.Quarantines)},
		{"respawns", d(b.Respawns, a.Respawns)},
		{"fallback_blocks", d(b.FallbackBlocks, a.FallbackBlocks)},
		{"scrub_sweeps", d(b.ScrubSweeps, a.ScrubSweeps)},
	} {
		r.res.set("supervisor."+c.name, c.v, "count")
	}
	// Transactions that delivered over all simulated: every detection
	// fails its first attempt and adds an in-place retry, which delivers
	// when it succeeds. Lanes per transaction cancel out.
	useful := 1.0
	if all := subs + det; all > 0 {
		useful = (subs - det + inPlace) / all
	}
	r.res.set("supervisor.useful_ratio", useful, "ratio")

	p50 := histogramQuantile(w.obsBefore, w.obsAfter, 0.5)
	r.res.set("obs.submit_latency_us_p50", p50/1e3, "us")
}

// hostLayer sets the allocation and GC metrics of the traced window.
func (r *runner) hostLayer(w *window) {
	blocks := float64(w.blocks)
	if blocks == 0 {
		blocks = 1
	}
	r.res.set("host.alloc_bytes_per_block", float64(w.memAfter.TotalAlloc-w.memBefore.TotalAlloc)/blocks, "B")
	r.res.set("host.gc_cycles", float64(w.memAfter.NumGC-w.memBefore.NumGC), "count")
	r.res.set("host.gc_pause_ms", float64(w.memAfter.PauseTotalNs-w.memBefore.PauseTotalNs)/1e6, "ms")
}

// timedSim is a bfm.VectorSim that times every call into the simulator it
// wraps. Eval and Step (a Step evaluates, then latches) are also counted as
// evaluations. bfm.AsVector only type-asserts VectorSim, so the wrapper
// hides no fast path from the driver.
type timedSim struct {
	bfm.VectorSim
	rec    *recorder
	parent int
	name   string
	evals  int
	evalNS int64
}

// measure makes one call into the wrapped simulator and accounts its wall
// time: as a child span of the current transaction, and as an evaluation
// when eval is set.
func (t *timedSim) measure(eval bool, call func()) {
	start := time.Now()
	call()
	end := time.Now()
	if eval {
		t.evals++
		t.evalNS += int64(end.Sub(start))
	}
	if t.parent != 0 {
		t.rec.span(t.name, start, end, t.parent, 0)
	}
}

func (t *timedSim) Reset() { t.measure(false, t.VectorSim.Reset) }
func (t *timedSim) Eval()  { t.measure(true, t.VectorSim.Eval) }
func (t *timedSim) Step()  { t.measure(true, t.VectorSim.Step) }

func (t *timedSim) SetInput(name string, v uint64) (err error) {
	t.measure(false, func() { err = t.VectorSim.SetInput(name, v) })
	return err
}

func (t *timedSim) SetInputBits(name string, bits []byte) (err error) {
	t.measure(false, func() { err = t.VectorSim.SetInputBits(name, bits) })
	return err
}

func (t *timedSim) SetInputLane(name string, lane int, v uint64) (err error) {
	t.measure(false, func() { err = t.VectorSim.SetInputLane(name, lane, v) })
	return err
}

func (t *timedSim) SetInputBitsLane(name string, lane int, bits []byte) (err error) {
	t.measure(false, func() { err = t.VectorSim.SetInputBitsLane(name, lane, bits) })
	return err
}

func (t *timedSim) Output(name string) (v uint64, err error) {
	t.measure(false, func() { v, err = t.VectorSim.Output(name) })
	return v, err
}

func (t *timedSim) OutputBits(name string) (v []byte, err error) {
	t.measure(false, func() { v, err = t.VectorSim.OutputBits(name) })
	return v, err
}

func (t *timedSim) OutputLane(name string, lane int) (v uint64, err error) {
	t.measure(false, func() { v, err = t.VectorSim.OutputLane(name, lane) })
	return v, err
}

func (t *timedSim) OutputBitsLane(name string, lane int) (v []byte, err error) {
	t.measure(false, func() { v, err = t.VectorSim.OutputBitsLane(name, lane) })
	return v, err
}

func (t *timedSim) OutputWords(name string) (v []uint64, err error) {
	t.measure(false, func() { v, err = t.VectorSim.OutputWords(name) })
	return v, err
}

func (t *timedSim) RegValue(name string) (v []byte, ok bool) {
	t.measure(false, func() { v, ok = t.VectorSim.RegValue(name) })
	return v, ok
}

// replayStats is what one replay measured, per transaction.
type replayStats struct {
	txnNS, selfNS, evalNS, evals, cycles float64
}

// replay drives the traced window's first core transactions through a
// keyed driver over sim, one span per transaction with the simulator calls
// as its children, and checks every output against the reference.
func (r *runner) replay(rec *recorder, impl *rijndaelip.Implementation, name string, sim bfm.VectorSim, txns []txn) (replayStats, error) {
	f, err := bfm.NewKeyedFactory(impl.Core, r.key)
	if err != nil {
		return replayStats{}, err
	}
	ts := &timedSim{VectorSim: sim, rec: rec, name: name + ".sim"}
	drv, _, err := f.CloneVectorSim(ts)
	if err != nil {
		return replayStats{}, err
	}
	ts.evals, ts.evalNS = 0, 0
	var cycles int
	for _, t := range txns {
		t0 := time.Now()
		id := rec.span(name+".transaction", t0, t0, 0, 0)
		ts.parent = id
		outs, c, err := drv.ProcessVector(t.in, t.encrypt)
		end := rec.ns(time.Now())
		ts.parent = 0
		rec.mu.Lock()
		rec.spans[id-1].End = end
		rec.mu.Unlock()
		cycles += c + 1 // the wr_data load edge, as the engine counts it
		r.res.attempted += len(t.in)
		if err != nil {
			r.res.failed += len(t.in)
			continue
		}
		for i := range outs {
			if !bytes.Equal(outs[i], t.want[i]) {
				r.res.failed++
			}
		}
	}
	n := float64(len(txns))
	return replayStats{
		txnNS:  mean(rec.durations(name + ".transaction")),
		selfNS: mean(rec.selfTimes(name + ".transaction")),
		evalNS: float64(ts.evalNS) / float64(max(ts.evals, 1)),
		evals:  float64(ts.evals) / n,
		cycles: float64(cycles) / n,
	}, nil
}

// replayLayers replays the traced window's inputs through the compiled RTL
// simulator, the compiled netlist simulator, and a lockstep pair of netlist
// simulators, and sets the simulator, driver and lockstep metrics. The
// driver metrics come from the simulator the workload's engine serves on:
// the RTL for a plain engine, the lockstep pair for a supervised one.
func (r *runner) replayLayers(impl *rijndaelip.Implementation, rec *recorder) error {
	var txns []txn
	for i := range rec.ops {
		txns = append(txns, coreTxns(r.ref, &rec.ops[i])...)
	}
	if len(txns) > replayTxns {
		txns = txns[:replayTxns]
	}
	if len(txns) == 0 {
		return fmt.Errorf("traced window recorded no calls to replay")
	}
	rtlSt, err := r.replay(rec, impl, "rtl", impl.Core.Design.NewCompiledSimulator(), txns)
	if err != nil {
		return err
	}
	nl := impl.Netlist.Raw()
	primary, err := netlist.NewCompiledSimulator(nl)
	if err != nil {
		return err
	}
	nlSt, err := r.replay(rec, impl, "netlist", primary, txns)
	if err != nil {
		return err
	}
	main, err := netlist.NewCompiledSimulator(nl)
	if err != nil {
		return err
	}
	shadow, err := netlist.NewCompiledSimulator(nl)
	if err != nil {
		return err
	}
	pairSt, err := r.replay(rec, impl, "lockstep", faultcampaign.NewVectorLockstep(main, shadow), txns)
	if err != nil {
		return err
	}
	r.res.set("rtl.eval_ns", rtlSt.evalNS, "ns")
	r.res.set("rtl.evals_per_transaction", rtlSt.evals, "count")
	r.res.set("netlist.eval_ns", nlSt.evalNS, "ns")
	r.res.set("netlist.evals_per_transaction", nlSt.evals, "count")
	served := rtlSt
	if r.wl.supervised {
		served = pairSt
	}
	r.res.set("bfm.transaction_us", served.txnNS/1e3, "us")
	r.res.set("bfm.self_us", served.selfNS/1e3, "us")
	r.res.set("bfm.cycles_per_transaction", served.cycles, "cycles")
	r.res.set("supervisor.lockstep_tax", pairSt.txnNS/nlSt.txnNS, "ratio")
	r.serviceNS = served.txnNS
	r.res.samples["bfm.transaction_us"] = len(txns)
	return nil
}

// aesLayer times the software reference cipher over the replayed blocks.
func (r *runner) aesLayer(rec *recorder) {
	var blocks [][]byte
	for i := range rec.ops {
		for k := 0; k < rec.ops[i].blocks(); k++ {
			blocks = append(blocks, rec.ops[i].src[16*k:16*k+16])
		}
	}
	dst := make([]byte, 16)
	var per []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		n := 0
		for n < 1024 {
			for _, b := range blocks {
				r.ref.Encrypt(dst, b)
			}
			n += len(blocks)
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	r.res.set("aes.ns_per_block", median(per), "ns")
}

// flowStages regenerates the workload's Table 2 cells stage by stage,
// mirroring rijndaelip.Build (elaborate, synthesize, fit, timing), checks
// every cell, sets the per-stage metrics (medians over table2Reps of the
// per-repetition sums over cells, from the stage spans) and returns the
// median total in CPU seconds, the unit of table2_s.
func (r *runner) flowStages(rec *recorder) (float64, error) {
	stages := []string{"rijndael.elaborate", "rtl.synthesize", "fpga.fit", "timing.sta"}
	per := map[string][]float64{}
	var totals []float64
	for rep := 0; rep < table2Reps; rep++ {
		runtime.GC()
		sum := map[string]float64{}
		c0 := cpuSeconds()
		for _, c := range r.cells() {
			dev := c.dev
			style := rtl.ROMAsync
			if !dev.SupportsAsyncROM {
				style = rtl.ROMLogic
			}
			t0 := time.Now()
			core, err := rijndael.New(rijndael.Config{Variant: c.variant, ROMStyle: style})
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			nl, err := core.Design.Synthesize(techmap.Options{})
			if err != nil {
				return 0, err
			}
			t2 := time.Now()
			fit, err := fpga.Fit(nl, dev)
			if err != nil {
				return 0, err
			}
			t3 := time.Now()
			sta, err := timing.Analyze(nl, dev.Delay)
			if err != nil {
				return 0, err
			}
			t4 := time.Now()
			for i, iv := range [][2]time.Time{{t0, t1}, {t1, t2}, {t2, t3}, {t3, t4}} {
				rec.span(stages[i], iv[0], iv[1], 0, 0)
				sum[stages[i]] += iv[1].Sub(iv[0]).Seconds() * 1e3
			}
			r.checkCell(mirrorCell(core, dev, fit, sta))
		}
		totals = append(totals, cpuSeconds()-c0)
		for _, s := range stages {
			per[s] = append(per[s], sum[s])
		}
	}
	for _, s := range stages {
		r.res.set(s+"_ms", median(per[s]), "ms")
	}
	return median(totals), nil
}

// mirrorCell computes a Table 2 cell from the stage results the way
// Implementation.Table2Cell does.
func mirrorCell(core *rijndael.Core, dev rijndaelip.Device, fit fpga.FitResult, sta timing.Result) report.Table2Cell {
	lat := sta.Period * float64(core.BlockLatency)
	mbps := 0.0
	if lat != 0 {
		mbps = 128 / lat * 1000
	}
	variant := map[rijndaelip.Variant]string{rijndaelip.Encrypt: "Encrypt", rijndaelip.Decrypt: "Decrypt", rijndaelip.Both: "Both"}[core.Config.Variant]
	return report.Table2Cell{
		Variant: variant, Device: dev.Family,
		LCs: fit.LogicCells, LCPercent: fit.LEPercent(),
		MemoryBits: fit.MemoryBits, MemPercent: fit.MemPercent(),
		Pins: fit.Pins, PinPercent: fit.PinPercent(),
		LatencyNS: lat, ClkNS: sta.Period, ThroughputMbps: mbps,
	}
}

// submitHistogram reads the engine's submit-to-complete latency histogram,
// summed over shards, from the registry's exposition: upper bound (ns,
// +Inf as 0) to cumulative count.
func submitHistogram(eng *rijndaelip.Engine) map[float64]float64 {
	out := map[float64]float64{}
	reg := eng.Metrics()
	if reg == nil {
		return out
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return out
	}
	const fam = "aesip_engine_submit_latency_ns_bucket{"
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, fam) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndex(line, `"}`)
		k := strings.LastIndex(line, " ")
		if i < 0 || j < i || k < j {
			continue
		}
		le, err1 := strconv.ParseFloat(line[i+4:j], 64)
		if line[i+4:j] == "+Inf" {
			le, err1 = 0, nil
		}
		c, err2 := strconv.ParseFloat(line[k+1:], 64)
		if err1 == nil && err2 == nil {
			out[le] += c
		}
	}
	return out
}

// histogramQuantile interpolates the q-quantile (ns) of the observations
// that arrived between two cumulative histogram reads, linearly within
// the bucket that holds it.
func histogramQuantile(before, after map[float64]float64, q float64) float64 {
	var bounds []float64
	for b := range after {
		if b != 0 {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	total := after[0] - before[0]
	if total <= 0 {
		return 0
	}
	target := q * total
	lower, prev := 0.0, 0.0
	for _, b := range bounds {
		cum := after[b] - before[b]
		if cum >= target {
			if cum == prev {
				return b
			}
			return lower + (b-lower)*(target-prev)/(cum-prev)
		}
		lower, prev = b, cum
	}
	return lower
}
