package obs

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	// Exactly-on-boundary values land in the bucket whose bound they
	// equal (bounds are inclusive).
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {1023, 0}, {1024, 0},
		{1025, 1}, {2048, 1}, {2049, 2},
		{Bound(10), 10}, {Bound(10) + 1, 11},
		{Bound(NumBuckets - 2), NumBuckets - 2},
		{Bound(NumBuckets-2) + 1, NumBuckets - 1},
		{math.MaxInt64, NumBuckets - 1},
		{-5, 0},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestQuantileAtBucketBoundaries(t *testing.T) {
	var h Histogram
	// 100 samples, all exactly at Bound(5): the whole bucket [Bound(4),
	// Bound(5)] holds every sample, so interpolation stays within it.
	for i := 0; i < 100; i++ {
		h.Observe(Bound(5))
	}
	s := h.Snapshot("t")
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		got := s.Quantile(q)
		if got < Bound(4) || got > Bound(5) {
			t.Errorf("Quantile(%v) = %d, want within [%d,%d]", q, got, Bound(4), Bound(5))
		}
	}
	if s.Quantile(1.0) != Bound(5) {
		t.Errorf("Quantile(1.0) = %d, want upper bound %d", s.Quantile(1.0), Bound(5))
	}

	// Empty histogram.
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 {
		t.Errorf("empty Quantile = %d, want 0", empty.Quantile(0.99))
	}

	// Bimodal: half in bucket 0, half in bucket 8 — p50 must fall in the
	// first mode, p99 in the second.
	var bi Histogram
	for i := 0; i < 50; i++ {
		bi.Observe(100)
		bi.Observe(Bound(8))
	}
	bs := bi.Snapshot("bi")
	if p50 := bs.Quantile(0.50); p50 > Bound(0) {
		t.Errorf("bimodal p50 = %d, want <= %d", p50, Bound(0))
	}
	if p99 := bs.Quantile(0.99); p99 <= Bound(7) {
		t.Errorf("bimodal p99 = %d, want > %d", p99, Bound(7))
	}

	// Last (open-ended) bucket reports its lower bound.
	var top Histogram
	top.Observe(math.MaxInt64 / 2)
	if got := top.Snapshot("top").Quantile(0.99); got != Bound(NumBuckets-2) {
		t.Errorf("open-bucket quantile = %d, want %d", got, Bound(NumBuckets-2))
	}
}

func TestSnapshotStableOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z")
	reg.Counter("a")
	reg.Counter("m")
	s := reg.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %v", s.Counters)
		}
	}
}

func TestMergeShards(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("buffer.shard00.hits").Add(3)
	reg.Counter("buffer.shard15.hits").Add(4)
	reg.Counter("wire.requests").Add(9)
	reg.Histogram("buffer.shard00.hit_ns").Observe(100)
	reg.Histogram("buffer.shard07.hit_ns").Observe(200)
	m := MergeShards(reg.Snapshot())
	var hits int64 = -1
	for _, c := range m.Counters {
		if c.Name == "buffer.hits" {
			hits = c.Value
		}
		if strings.Contains(c.Name, "shard") {
			t.Fatalf("unmerged shard counter %q", c.Name)
		}
	}
	if hits != 7 {
		t.Fatalf("merged buffer.hits = %d, want 7", hits)
	}
	if len(m.Hists) != 1 || m.Hists[0].Name != "buffer.hit_ns" || m.Hists[0].Count != 2 {
		t.Fatalf("merged hists = %+v", m.Hists)
	}
}

func TestActiveSpanPerGoroutine(t *testing.T) {
	if Active() != nil {
		t.Fatal("Active() non-nil with no span activated")
	}
	s := NewSpan("read")
	Activate(s)
	defer Deactivate()
	if Active() != s {
		t.Fatal("Active() did not return the activated span")
	}
	// Another goroutine must not see this goroutine's span.
	done := make(chan *Span)
	go func() { done <- Active() }()
	if other := <-done; other != nil {
		t.Fatalf("sibling goroutine saw span %+v", other)
	}
}

func TestSpanChargesConcurrent(t *testing.T) {
	s := NewSpan("write")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.AddBufLoad(10)
				s.BufMiss()
			}
		}()
	}
	wg.Wait()
	if got := s.BufLoadNs.Load(); got != 8000 {
		t.Fatalf("BufLoadNs = %d, want 8000", got)
	}
	if got := s.BufMisses.Load(); got != 800 {
		t.Fatalf("BufMisses = %d, want 800", got)
	}
}

func TestTraceRingKeepsSlowest(t *testing.T) {
	r := NewTraceRing(3)
	for _, w := range []int64{5, 1, 9, 3, 7, 2} {
		r.Record(SpanData{Op: "x", WallNs: w})
	}
	got := r.Slowest()
	if len(got) != 3 || got[0].WallNs != 9 || got[1].WallNs != 7 || got[2].WallNs != 5 {
		t.Fatalf("Slowest() = %+v", got)
	}
}

func TestHandlerMetricsAndTraces(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wire.requests").Add(2)
	reg.Histogram("wire.op.read_ns").Observe(5000)
	ring := NewTraceRing(4)
	ring.Record(SpanData{Op: "read", WallNs: 123, Outcome: "ok"})
	refreshed := false
	h := Handler(reg, ring, func() { refreshed = true })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !refreshed {
		t.Fatal("refresh callback not invoked")
	}
	for _, want := range []string{
		"inv_wire_requests 2",
		"# TYPE inv_wire_op_read_seconds histogram",
		"inv_wire_op_read_seconds_count 1",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/recent", nil))
	if !strings.Contains(rec.Body.String(), `"op": "read"`) {
		t.Errorf("/traces/recent = %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", rec.Code)
	}
}

func TestFormatTextUnitsAndOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.second").Add(2)
	reg.Counter("a.first").Add(1)
	reg.Gauge("g.cap").Set(64)
	reg.Histogram("lat_ns").Observe(int64(3 * time.Millisecond))
	out := FormatText(Samples(reg.Snapshot(), WaitProfile{}))
	ia, ib := strings.Index(out, "a.first"), strings.Index(out, "b.second")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters out of order:\n%s", out)
	}
	if !strings.Contains(out, "p99=") || !strings.Contains(out, "ms") {
		t.Fatalf("histogram line missing quantiles/units:\n%s", out)
	}
}

// TestHistogramUnitsFromNameSuffix: only *_ns histograms are latencies.
// They export to Prometheus as *_seconds and print as durations; any
// other histogram (the group-commit batch size) keeps its own unit:
// integer le bounds, no _seconds suffix, plain numbers in FormatText.
func TestHistogramUnitsFromNameSuffix(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Histogram("txn.group_commit.batch_size").Observe(512)
	}
	reg.Histogram("txn.commit_force_ns").Observe(int64(2 * time.Millisecond))

	rec := httptest.NewRecorder()
	Handler(reg, nil, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if strings.Contains(body, "inv_txn_group_commit_batch_size_seconds") {
		t.Fatalf("batch size exported as seconds:\n%s", body)
	}
	for _, want := range []string{
		"# TYPE inv_txn_group_commit_batch_size histogram",
		`inv_txn_group_commit_batch_size_bucket{le="1024"} 10`,
		"inv_txn_group_commit_batch_size_sum 5120",
		"# TYPE inv_txn_commit_force_seconds histogram",
		"inv_txn_commit_force_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	les := regexp.MustCompile(`inv_txn_group_commit_batch_size_bucket\{le="([^"]+)"\}`).FindAllStringSubmatch(body, -1)
	if len(les) != NumBuckets+1 {
		t.Fatalf("batch size has %d buckets, want %d", len(les), NumBuckets+1)
	}
	for _, m := range les[:NumBuckets] {
		if _, err := strconv.ParseInt(m[1], 10, 64); err != nil {
			t.Errorf("batch size le=%q is not an integer", m[1])
		}
	}

	out := FormatText(Samples(reg.Snapshot(), WaitProfile{}))
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "batch_size"):
			if strings.Contains(line, "ns") || strings.Contains(line, "µs") || !strings.Contains(line, "p50=512") {
				t.Errorf("batch size line not in plain units: %q", line)
			}
		case strings.Contains(line, "commit_force_ns"):
			if !strings.Contains(line, "ms") {
				t.Errorf("latency line not a duration: %q", line)
			}
		}
	}
}

func TestFormatNs(t *testing.T) {
	cases := map[int64]string{
		999:           "999ns",
		1500:          "1.5µs",
		2_500_000:     "2.5ms",
		1_500_000_000: "1.50s",
	}
	for ns, want := range cases {
		if got := FormatNs(ns); got != want {
			t.Errorf("FormatNs(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(1)
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	_ = r.Snapshot()
	var sp *Span
	sp.AddLockWait(1)
	sp.BufHit()
	sp.SetTxn(1)
	sp.SetRel("x")
	Activate(nil)
	var ring *TraceRing
	ring.Record(SpanData{})
	if ring.Slowest() != nil {
		t.Fatal("nil ring Slowest must be nil")
	}
}
