package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rijndaelip"
	"rijndaelip/internal/aes"
	"rijndaelip/internal/chaos"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/report"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

// table2Golden holds the Table 2 cells the parent commit of the benchmark
// produced; every regenerated cell must equal its entry exactly.
//
//go:embed table2_golden.json
var table2Golden []byte

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// table2Reps is how many times flow_signoff regenerates Table 2.
	table2Reps = 3
	// auditMin and auditCPU bound an engine workload's tape audits from
	// below: at least auditMin audits and auditCPU CPU seconds.
	auditMin = 5
	auditCPU = 1
	// verifyBudget caps SAT conflicts per obligation, as cmd/verifyall
	// does; an obligation that exhausts it counts as a failure.
	verifyBudget = 500000
	// minTailCalls is the call count at which 10 samples lie beyond p99.
	minTailCalls = 1000
	// slices is how many equal slices the traffic window is cut into.
	slices = 5
)

// runner carries one run's state across its phases.
type runner struct {
	wl  *workload
	o   options
	res *result
	key []byte
	ref *aes.Cipher
	// pools holds each client's pre-generated calls, expected outputs
	// included; a client cycles through its pool.
	pools  [][][]op
	next   []int // per client, the pool index its next call takes
	strike int64
	golden []report.Table2Cell
	// epoch is the run's time origin for spans.
	epoch time.Time
	// serviceNS is the replayed mean transaction time of the served
	// simulator, the length of each engine.service span.
	serviceNS float64
}

func runWorkload(wl *workload, o options) (*result, error) {
	master := rand.New(rand.NewSource(o.seed))
	r := &runner{
		wl: wl, o: o, epoch: time.Now(),
		res: &result{workload: wl.name, seed: o.seed, seconds: o.seconds, trace: o.trace,
			metrics: map[string]metric{}, samples: map[string]int{}},
		key:    randBytes(master, 16),
		strike: master.Int63(),
	}
	ref, err := aes.NewCipher(r.key)
	if err != nil {
		return nil, err
	}
	r.ref = ref
	for i := 0; i < wl.clients; i++ {
		pool, err := r.pool(rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			return nil, err
		}
		r.pools = append(r.pools, pool)
		r.next = append(r.next, 0)
	}
	r.res.notes = append(r.res.notes, wl.name+": "+wl.describe())
	steal0, total0 := stealTicks()
	if o.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		r.res.steal = (steal1 - steal0) / (total1 - total0)
	}
	return r.res, err
}

// pool generates one client's calls and their reference outputs before
// anything is timed: the software reference is far slower than the engine,
// so computing it inside the closed loop would measure the reference.
func (r *runner) pool(rng *rand.Rand) ([][]op, error) {
	pool := make([][]op, r.wl.pool)
	for i := range pool {
		pool[i] = r.wl.gen(rng, i)
		for k := range pool[i] {
			if err := expect(r.ref, &pool[i][k]); err != nil {
				return nil, fmt.Errorf("reference %s: %w", pool[i][k].mode, err)
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() error {
	impl, eng, st, err := r.setUp(nil)
	if err != nil {
		return err
	}
	defer eng.Close()
	win := r.traffic(eng, nil)
	for n, v := range windowMetrics(impl, win) {
		r.res.set(n, v, e2eUnits[n])
	}
	r.res.samples["call_p50_ms"] = len(win.lat)
	r.res.samples["call_p99_ms"] = len(win.lat)
	if len(win.lat) < minTailCalls {
		r.res.notes = append(r.res.notes, fmt.Sprintf("only %d calls: fewer than 10 lie beyond p99", len(win.lat)))
	}
	rss := peakRSSMB()
	eng.Close()
	table2, err := r.table2(impl, st.cell)
	if err != nil {
		return err
	}
	equiv, err := r.signOff(impl)
	if err != nil {
		return err
	}
	if r.wl.flow {
		rss = peakRSSMB()
	}
	r.res.set("setup_s", st.median(), "s")
	r.res.set("table2_s", table2, "s")
	r.res.set("equiv_s", equiv, "s")
	r.res.set("peak_rss_mb", rss, "MB")
	return nil
}

// setupTimes are the per-repetition set-up durations in seconds: total
// (reference load + Build + NewEngine) and the Build alone (the workload's
// own Table 2 cell).
type setupTimes struct{ total, cell []float64 }

func (s setupTimes) median() float64 { return median(s.total) }

// setUp loads the reference data, builds the workload's implementation and
// engine setupReps times, and keeps the last engine. rec, when non-nil, is
// stamped with every submission's service start.
func (r *runner) setUp(rec *recorder) (*rijndaelip.Implementation, *rijndaelip.Engine, setupTimes, error) {
	var st setupTimes
	var impl *rijndaelip.Implementation
	var eng *rijndaelip.Engine
	for rep := 0; rep < setupReps; rep++ {
		if eng != nil {
			eng.Close()
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		if err := json.Unmarshal(table2Golden, &r.golden); err != nil {
			return nil, nil, st, fmt.Errorf("reference table: %w", err)
		}
		var err error
		impl, err = rijndaelip.Build(r.wl.variant, r.wl.device())
		if err != nil {
			return nil, nil, st, err
		}
		c1 := cpuSeconds()
		eng, err = impl.NewEngine(r.key, r.engineOptions(impl, rec))
		if err != nil {
			return nil, nil, st, err
		}
		st.total = append(st.total, cpuSeconds()-c0)
		st.cell = append(st.cell, c1-c0)
		rec.span("setup", t0, time.Now(), 0, 0)
	}
	return impl, eng, st, nil
}

func (r *runner) engineOptions(impl *rijndaelip.Implementation, rec *recorder) rijndaelip.EngineOptions {
	opts := rijndaelip.EngineOptions{Shards: r.wl.shards}
	if r.wl.supervised {
		inj := chaos.NewInjector(chaos.Config{Seed: r.strike}, impl.Core.BlockLatency)
		strike := inj.Strike
		if rec != nil {
			strike = func(shard int, sub uint64, sim *netlist.Simulator) {
				inj.Strike(shard, sub, sim)
				rec.serviceStart()
			}
		}
		opts.Supervise = &rijndaelip.SupervisorOptions{Check: rijndaelip.CheckLockstep, Strike: strike}
	} else if rec != nil {
		opts.Jitter = func(int, int) { rec.serviceStart() }
	}
	return opts
}

// window is what one traffic window measured.
type window struct {
	blocks, failed int
	lat            []float64 // per-call latency, ms
	// rates is the verified-block rate of each equal slice of the window,
	// by call completion time; blocks_per_s is their median, so a short
	// stall of the host moves one slice, not the result.
	rates               [slices]float64
	before, after       rijndaelip.EngineStats
	memBefore, memAfter runtime.MemStats
	obsBefore, obsAfter map[float64]float64
}

// traffic runs the closed loop: every client issues its next call only
// after its previous one returned and was checked, until the window ends.
// rec, when non-nil and armed, records call spans and replay inputs.
func (r *runner) traffic(eng *rijndaelip.Engine, rec *recorder) *window {
	w := &window{before: eng.Stats(), obsBefore: submitHistogram(eng)}
	dur := time.Duration(r.o.seconds * r.wl.trafficShare * float64(time.Second))
	runtime.GC()
	runtime.ReadMemStats(&w.memBefore)
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c, pool := range r.pools {
		wg.Add(1)
		go func(c int, pool [][]op) {
			defer wg.Done()
			var lat []float64
			var good [slices]int
			calls, blocks, failed := 0, 0, 0
			for time.Now().Before(deadline) {
				ops := pool[(r.next[c]+calls)%len(pool)]
				outs := make([][]byte, len(ops))
				errs := make([]error, len(ops))
				t0 := time.Now()
				for i := range ops {
					outs[i], errs[i] = issue(context.Background(), eng, &ops[i])
				}
				t1 := time.Now()
				n, bad := 0, 0
				for i := range ops {
					n += ops[i].blocks()
					bad += mismatches(outs[i], ops[i].want, errs[i])
				}
				if k := int(t1.Sub(start) * slices / dur); k < slices {
					good[k] += n - bad
				}
				blocks += n
				failed += bad
				calls++
				lat = append(lat, float64(t1.Sub(t0))/1e6)
				rec.call(t0, t1, ops)
			}
			r.next[c] += calls
			mu.Lock()
			w.blocks += blocks
			w.failed += failed
			w.lat = append(w.lat, lat...)
			for k, g := range good {
				w.rates[k] += float64(g) / (dur.Seconds() / slices)
			}
			mu.Unlock()
		}(c, pool)
	}
	wg.Wait()
	runtime.ReadMemStats(&w.memAfter)
	w.after = eng.Stats()
	w.obsAfter = submitHistogram(eng)
	r.res.attempted += w.blocks
	r.res.failed += w.failed
	return w
}

// cyclesPerBlock is EngineStats.AggregateCyclesPerBlock restricted to the
// window: the busiest shard's simulated cycles over the blocks delivered.
func (w *window) cyclesPerBlock() float64 {
	var most uint64
	for i, s := range w.after.Shards {
		if d := s.Cycles - w.before.Shards[i].Cycles; d > most {
			most = d
		}
	}
	blocks := w.after.Blocks - w.before.Blocks
	if blocks == 0 {
		return 0
	}
	return float64(most) / float64(blocks)
}

// windowMetrics computes the traffic window's end-to-end metrics.
func windowMetrics(impl *rijndaelip.Implementation, w *window) map[string]float64 {
	cpb := w.cyclesPerBlock()
	mbps := 0.0
	if cpb > 0 {
		mbps = 128 / (cpb * impl.ClockNS()) * 1000
	}
	return map[string]float64{
		"blocks_per_s":         median(w.rates[:]),
		"call_p50_ms":          percentile(w.lat, 0.50),
		"call_p99_ms":          percentile(w.lat, 0.99),
		"sim_cycles_per_block": cpb,
		"modeled_mbps":         mbps,
	}
}

var e2eUnits = map[string]string{
	"setup_s": "s", "blocks_per_s": "1/s", "call_p50_ms": "ms", "call_p99_ms": "ms",
	"sim_cycles_per_block": "cycles", "modeled_mbps": "Mbps", "table2_s": "s",
	"equiv_s": "s", "peak_rss_mb": "MB",
}

// cell names one Table 2 cell: a variant on a device.
type cell struct {
	variant rijndaelip.Variant
	dev     rijndaelip.Device
}

// cells lists the Table 2 cells a workload regenerates, in Table2 order.
func (r *runner) cells() []cell {
	if !r.wl.flow {
		return []cell{{r.wl.variant, r.wl.device()}}
	}
	var out []cell
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		for _, d := range []rijndaelip.Device{rijndaelip.Acex1K(), rijndaelip.Cyclone()} {
			out = append(out, cell{v, d})
		}
	}
	return out
}

// checkCell counts one regenerated Table 2 cell against the reference.
func (r *runner) checkCell(c report.Table2Cell) {
	r.res.attempted++
	for _, g := range r.golden {
		if g.Variant == c.Variant && g.Device == c.Device {
			if g != c {
				r.res.failed++
				r.res.notes = append(r.res.notes, fmt.Sprintf("table 2 cell %s/%s differs: got %+v, want %+v", c.Variant, c.Device, c, g))
			}
			return
		}
	}
	r.res.failed++
	r.res.notes = append(r.res.notes, fmt.Sprintf("table 2 cell %s/%s has no reference", c.Variant, c.Device))
}

// table2 returns table2_s: the median time to regenerate the whole Table 2
// on flow_signoff, else the median Build time of the served core's cell.
func (r *runner) table2(impl *rijndaelip.Implementation, cellTimes []float64) (float64, error) {
	if !r.wl.flow {
		r.checkCell(impl.Table2Cell())
		return median(cellTimes), nil
	}
	var times []float64
	for rep := 0; rep < table2Reps; rep++ {
		runtime.GC()
		c0 := cpuSeconds()
		pairs, err := rijndaelip.Table2()
		if err != nil {
			return 0, err
		}
		times = append(times, cpuSeconds()-c0)
		for _, c := range rijndaelip.MeasuredTable2(pairs) {
			r.checkCell(c)
		}
	}
	return median(times), nil
}

// signOff returns equiv_s: the SAT proof on flow_signoff, the compiled-tape
// audit elsewhere.
func (r *runner) signOff(impl *rijndaelip.Implementation) (float64, error) {
	if r.wl.flow {
		d, _, err := r.equiv()
		return d, err
	}
	return r.audit(impl)
}

// audit statically proves the compiled tape the workload's shards execute
// faithful to the design it was compiled from — the RTL schedule on a
// plain engine, the netlist tape on a supervised one — and returns the CPU
// seconds per audit. It repeats the audit for at least auditCPU seconds
// (an RTL audit takes well under a millisecond). Any finding counts as a
// failure.
func (r *runner) audit(impl *rijndaelip.Implementation) (float64, error) {
	runtime.GC()
	c0 := cpuSeconds()
	n := 0
	for ; n < auditMin || cpuSeconds()-c0 < auditCPU; n++ {
		var findings []string
		if r.wl.supervised {
			var err error
			if findings, err = netlist.AuditCompiled(impl.Netlist.Raw()); err != nil {
				return 0, err
			}
		} else {
			findings = impl.Core.Design.AuditCompiled()
		}
		r.res.attempted++
		if len(findings) > 0 {
			r.res.failed++
			r.res.notes = append(r.res.notes, fmt.Sprintf("tape audit: %d finding(s), first: %s", len(findings), findings[0]))
		}
	}
	return (cpuSeconds() - c0) / float64(n), nil
}

// equiv SAT-proves the Encrypt/async-ROM core's mapped netlist equivalent
// to its RTL and returns the proof time; every obligation must be proved.
func (r *runner) equiv() (float64, rtl.VerifyReport, error) {
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		return 0, rtl.VerifyReport{}, err
	}
	syn, err := core.Design.SynthesizeTracked(techmap.Options{})
	if err != nil {
		return 0, rtl.VerifyReport{}, err
	}
	runtime.GC()
	c0 := cpuSeconds()
	rep, verr := syn.Verify(verifyBudget)
	d := cpuSeconds() - c0
	r.res.attempted += max(rep.Obligations, 1)
	bad := rep.Obligations - rep.Proved
	if verr != nil {
		bad = max(bad, 1)
		r.res.notes = append(r.res.notes, "equivalence: "+verr.Error())
	}
	r.res.failed += bad
	return d, rep, nil
}

// cpuSeconds is the CPU time the process has used, user and system, over
// all its threads. The fixed-work metrics (setup_s, table2_s, equiv_s) are
// measured in it: unlike wall time it does not grow while a co-tenant of a
// shared host holds the CPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks reads the host-wide CPU time stolen from this machine by its
// hypervisor and the total, in clock ticks, from /proc/stat; zeros without
// procfs.
func stealTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, the runtime's view of memory obtained from the OS is
	// the closest upper bound.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
