package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aesip_test_total", "shard", "3")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var depth float64 = 7
	r.GaugeFunc("aesip_test_depth", func() float64 { return depth })
	r.CounterFunc("aesip_test_fn_total", func() uint64 { return 11 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aesip_test_total counter",
		`aesip_test_total{shard="3"} 5`,
		"# TYPE aesip_test_depth gauge",
		"aesip_test_depth 7",
		"aesip_test_fn_total 11",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	if snap[`aesip_test_total{shard="3"}`] != 5 || snap["aesip_test_depth"] != 7 {
		t.Errorf("snapshot = %v", snap)
	}
}

// TestHistogramBuckets pins the log2 bucketing: observations land in the
// bucket whose power-of-two upper bound first covers them, cumulative
// counts are monotone, and the +Inf bucket equals the total count.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aesip_test_latency_ns", "shard", "0")
	h.Observe(0)                     // bucket 0
	h.Observe(255 * time.Nanosecond) // bucket 0 (<= 256)
	h.Observe(257 * time.Nanosecond) // bucket 1 (<= 512)
	h.Observe(time.Millisecond)      // interior
	h.Observe(time.Hour)             // far past the range: +Inf bucket
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != histBuckets || len(cum) != histBuckets {
		t.Fatalf("bucket arrays %d/%d, want %d", len(bounds), len(cum), histBuckets)
	}
	if bounds[0] != 256 || bounds[1] != 512 {
		t.Errorf("bounds start %d,%d, want 256,512", bounds[0], bounds[1])
	}
	if cum[0] != 2 || cum[1] != 3 {
		t.Errorf("cumulative start %d,%d, want 2,3", cum[0], cum[1])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts not monotone at %d", i)
		}
	}
	if cum[len(cum)-1] != 5 {
		t.Errorf("+Inf bucket = %d, want 5", cum[len(cum)-1])
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aesip_test_latency_ns histogram",
		`aesip_test_latency_ns_bucket{shard="0",le="256"} 2`,
		`aesip_test_latency_ns_bucket{shard="0",le="+Inf"} 5`,
		`aesip_test_latency_ns_count{shard="0"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestRingWraparound fills a small ring past capacity and checks the
// retained window: newest events survive, sequence numbers stay globally
// monotonic, and the overwrite count is exact.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d events", len(got))
	}
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindDetection, Shard: i})
	}
	if r.Seq() != 10 {
		t.Errorf("seq = %d, want 10", r.Seq())
	}
	if r.Overwritten() != 6 {
		t.Errorf("overwritten = %d, want 6", r.Overwritten())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(got))
	}
	for i, ev := range got {
		if wantSeq := uint64(7 + i); ev.Seq != wantSeq || ev.Shard != 6+i {
			t.Errorf("event %d = seq %d shard %d, want seq %d shard %d",
				i, ev.Seq, ev.Shard, wantSeq, 6+i)
		}
		if ev.Time.IsZero() {
			t.Errorf("event %d has no timestamp", i)
		}
	}
}

// TestRingConcurrentEmitDump hammers Emit from several goroutines while
// another snapshots continuously — the -race gate for the trace path.
func TestRingConcurrentEmitDump(t *testing.T) {
	r := NewRing(64)
	const writers, events = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq != snap[i-1].Seq+1 {
					t.Errorf("snapshot not sequence-contiguous: %d after %d", snap[i].Seq, snap[i-1].Seq)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Emit(Event{Kind: KindScrubCorrect, Shard: w, Submission: uint64(i)})
			}
		}(w)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Writers finish first; then release the snapshotter.
	for r.Seq() < writers*events {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-wgDone
	if r.Seq() != writers*events {
		t.Errorf("seq = %d, want %d", r.Seq(), writers*events)
	}
}

// TestHandlerRoutes scrapes every exposition route over HTTP.
func TestHandlerRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aesip_handler_total").Add(3)
	ring := NewRing(8)
	ring.Emit(Event{Kind: KindQuarantine, Shard: 1, Cause: "rom"})
	srv := httptest.NewServer(Handler(reg, ring))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		if _, err := fmt.Fprint(&b, readAll(t, resp.Body)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "aesip_handler_total 3") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var events []Event
	if err := json.Unmarshal([]byte(get("/trace")), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != KindQuarantine || events[0].Cause != "rom" {
		t.Errorf("/trace = %+v", events)
	}
	if out := get("/debug/vars"); !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Errorf("/debug/vars not JSON:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func readAll(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Seq: 9, Kind: KindPersistent, Shard: 2, Generation: 3, Attempt: 1, Cause: "rom", Detail: "word 0x12"}
	s := ev.String()
	for _, want := range []string{"#9", "persistent", "shard=2", "gen=3", "attempt=1", "cause=rom", "word 0x12"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestCPUSecondsAdvances(t *testing.T) {
	c0 := CPUSeconds()
	x := uint64(1)
	for c1 := c0; c1 <= c0; c1 = CPUSeconds() {
		for i := 0; i < 1e6; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	if c0 < 0 || x == 0 {
		t.Fatalf("CPUSeconds start %v", c0)
	}
}
