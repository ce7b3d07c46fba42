package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("x_total") != c {
		t.Fatal("Counter must return the same handle for the same name")
	}

	g := reg.Gauge("x_gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	if reg.Gauge("x_gauge") != g {
		t.Fatal("Gauge must return the same handle for the same name")
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	reg := NewRegistry()
	v := 1.0
	reg.GaugeFunc("derived", func() float64 { return v })
	if got := reg.Snapshot().Gauges["derived"]; got != 1 {
		t.Fatalf("first snapshot = %g", got)
	}
	v = 7
	if got := reg.Snapshot().Gauges["derived"]; got != 7 {
		t.Fatalf("snapshot must re-evaluate the func: got %g, want 7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	// 10 observations uniformly into the first bucket, 10 into the second.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := h.Snapshot()
	if s.Count != 20 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-(10*5+10*15)) > 1e-9 {
		t.Fatalf("sum = %g", s.Sum)
	}
	// The median rank (10) sits exactly at the first bucket's upper bound.
	if got := s.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p50 = %g, want 10", got)
	}
	// p90 → rank 18, 8/10 of the way through bucket (10,20].
	if got := s.Quantile(0.9); math.Abs(got-18) > 1e-9 {
		t.Fatalf("p90 = %g, want 18", got)
	}
	if s.P50 != s.Quantile(0.5) || s.P99 != s.Quantile(0.99) {
		t.Fatal("snapshot quantile fields must match Quantile")
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram([]float64{10})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	h.Observe(1e6) // lands in the +Inf bucket
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket counts = %v", s.Counts)
	}
	// +Inf bucket extrapolates past the last bound rather than returning 0.
	if got := s.Quantile(0.99); got <= 10 {
		t.Fatalf("overflow quantile = %g, want > last bound", got)
	}
}

func TestHistogramDefaultBoundsCoverLatencies(t *testing.T) {
	h := NewHistogram(nil)
	for _, ns := range []float64{50, 1e3, 1e6, 1e9, 1e11} {
		h.Observe(ns)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	tr := NewRing(3)
	for i := 0; i < 5; i++ {
		tr.Record(DecisionRecord{Step: i})
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("retained = %d, want 3", len(recs))
	}
	for i, want := range []int{2, 3, 4} {
		if recs[i].Step != want {
			t.Fatalf("records = %v, want steps 2,3,4 oldest-first", recs)
		}
	}
	last := tr.Last(2)
	if len(last) != 2 || last[0].Step != 3 || last[1].Step != 4 {
		t.Fatalf("last(2) = %v", last)
	}
	if got := tr.Total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	// n larger than retained returns everything.
	if got := len(tr.Last(100)); got != 3 {
		t.Fatalf("last(100) = %d records", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`evictions_total{policy="HEEB"}`).Add(3)
	reg.Gauge("cache_len").Set(8)
	h := reg.HistogramWith("lat_ns", []float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE evictions_total counter",
		`evictions_total{policy="HEEB"} 3`,
		"# TYPE cache_len gauge",
		"cache_len 8",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="10"} 1`,
		`lat_ns_bucket{le="20"} 2`,
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_sum 119",
		"lat_ns_count 3",
		"lat_ns_p50",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusElidesEmptyInteriorBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ns") // default buckets, 81 of them
	h.Observe(150)
	h.Observe(5e8)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	lines := 0
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "lat_ns_bucket") {
			lines++
		}
	}
	// Two hit buckets plus the first and +Inf buckets at most; far fewer than 81.
	if lines > 6 {
		t.Fatalf("%d bucket lines emitted, empties should be elided", lines)
	}
	// The cumulative count at +Inf must still be exact.
	if !strings.Contains(buf.String(), `lat_ns_bucket{le="+Inf"} 2`) {
		t.Fatalf("cumulative +Inf wrong:\n%s", buf.String())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Inc()
	reg.Histogram("h_ns").Observe(1234)
	reg.Trace().Record(DecisionRecord{Step: 7, Policy: "HEEB", Need: 1,
		Candidates: []TraceCandidate{{Key: 5, Stream: "R", Score: 0.25, Evicted: true}}})

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["a_total"] != 1 || s.Histograms["h_ns"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Trace) != 1 || s.Trace[0].Candidates[0].Score != 0.25 {
		t.Fatalf("trace = %+v", s.Trace)
	}
}

func TestSplitJoinName(t *testing.T) {
	base, labels := splitName(`x_total{policy="HEEB"}`)
	if base != "x_total" || labels != `policy="HEEB"` {
		t.Fatalf("split = %q, %q", base, labels)
	}
	if b, l := splitName("plain"); b != "plain" || l != "" {
		t.Fatalf("plain split = %q, %q", b, l)
	}
	if got := joinName("x", `a="b"`); got != `x{a="b"}` {
		t.Fatalf("joinName = %q", got)
	}
	if got := joinLabels("", `le="5"`); got != `{le="5"}` {
		t.Fatalf("joinLabels = %q", got)
	}
	if got := joinLabels("", ""); got != "" {
		t.Fatalf("empty joinLabels = %q", got)
	}
}

// TestRegistryConcurrent hammers handle resolution, metric writes, the trace
// and snapshots from many goroutines at once; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("shared_total").Inc()
				reg.Counter(fmt.Sprintf("per_worker_%d_total", w)).Inc()
				reg.Gauge("shared_gauge").Set(1)
				reg.Histogram("shared_ns").Observe(float64(i%1000 + 100))
				if i%50 == 0 {
					reg.Trace().Record(DecisionRecord{Step: i, Policy: "T"})
					reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters["shared_total"]; got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := s.Gauges["shared_gauge"]; got != 1 {
		t.Fatalf("shared gauge = %g, want 1", got)
	}
	hs := s.Histograms["shared_ns"]
	if hs.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*iters)
	}
	var sum int64
	for _, c := range hs.Counts {
		sum += c
	}
	if sum != hs.Count {
		t.Fatalf("bucket sum %d != count %d", sum, hs.Count)
	}
}

// TestHistogramSnapshotConsistencyUnderWrites takes snapshots while writers
// run; every snapshot's bucket sum must equal its reported count and counts
// must be monotone across snapshots.
func TestHistogramSnapshotConsistencyUnderWrites(t *testing.T) {
	h := NewHistogram(nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					h.Observe(float64(100 + i%100000))
				}
			}
		}()
	}
	var prev int64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var sum int64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d: bucket sum %d != count %d", i, sum, s.Count)
		}
		if s.Count < prev {
			t.Fatalf("snapshot %d: count went backwards (%d < %d)", i, s.Count, prev)
		}
		prev = s.Count
	}
	close(done)
	wg.Wait()
}

// A registry's decision trace holds no records' worth of memory until
// something is recorded: with telemetry off nothing ever is, and every daemon
// and the package default carry a registry.
func TestRegistryAllocatesNoRingUntilRecorded(t *testing.T) {
	reg := NewRegistry()
	if cap(reg.trace.buf) != 0 {
		t.Fatalf("a new registry holds a ring of %d records", cap(reg.trace.buf))
	}
	if recs := reg.Trace().Last(5); len(recs) != 0 || reg.Trace().Total() != 0 {
		t.Fatalf("an empty ring reads %v, total %d", recs, reg.Trace().Total())
	}
	if cap(reg.trace.buf) != 0 {
		t.Fatal("reading an empty ring allocated it")
	}
	reg.Trace().Record(DecisionRecord{Step: 3})
	if cap(reg.trace.buf) != 512 {
		t.Fatalf("after one decision the ring holds %d records, want 512", cap(reg.trace.buf))
	}
	if recs := reg.Trace().Records(); len(recs) != 1 || recs[0].Step != 3 {
		t.Fatalf("records = %v", recs)
	}
}

// Total returns the number of records ever written (including overwritten
// ones).
func (t *Ring) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
