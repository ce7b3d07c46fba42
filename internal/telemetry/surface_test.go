package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/flightrec"
	"stochstream/internal/telemetry"
)

// The daemon's HTTP surface (internal/streamd) writes what these tests pin:
// a registry's Prometheus text and JSON snapshot, and the newest-n windows of
// its decision trace and of a flight recorder. The routes themselves, with
// their status codes and n validation, are tested there.

// TestHandlerEndpoints pins the bodies of /metrics, /metrics.json and
// /trace?n=1 as a registry renders them.
func TestHandlerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("req_total").Add(2)
	reg.Histogram("lat_ns").Observe(500)
	reg.Trace().Record(telemetry.DecisionRecord{Step: 1, Policy: "HEEB", Need: 1})
	reg.Trace().Record(telemetry.DecisionRecord{Step: 2, Policy: "HEEB", Need: 1})

	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	if body := prom.String(); !strings.Contains(body, "req_total 2") || !strings.Contains(body, "# TYPE lat_ns histogram") {
		t.Fatalf("Prometheus exposition lacks the counter or the histogram:\n%s", body)
	}

	var js bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("JSON snapshot invalid: %v", err)
	}
	if snap.Counters["req_total"] != 2 {
		t.Fatalf("json snapshot = %+v", snap)
	}

	body, err := json.Marshal(reg.Trace().Last(1))
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.DecisionRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("trace body %q: %v", body, err)
	}
	if len(recs) != 1 || recs[0].Step != 2 {
		t.Fatalf("trace records = %+v, want just the newest (step 2)", recs)
	}
}

// TestTraceParamValidation pins the trace window at its edges: n=0 is an
// empty JSON array, not null, and n beyond the retained count returns every
// record.
func TestTraceParamValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	if body, _ := json.Marshal(reg.Trace().Last(0)); string(body) != "[]" {
		t.Fatalf("empty trace, n=0: %s, want []", body)
	}
	reg.Trace().Record(telemetry.DecisionRecord{Step: 1, Policy: "HEEB", Need: 1})
	reg.Trace().Record(telemetry.DecisionRecord{Step: 2, Policy: "HEEB", Need: 1})

	if body, _ := json.Marshal(reg.Trace().Last(0)); string(body) != "[]" {
		t.Fatalf("n=0: %s, want []", body)
	}
	if recs := reg.Trace().Last(100000); len(recs) != 2 || recs[0].Step != 1 || recs[1].Step != 2 {
		t.Fatalf("oversized n returned %+v, want both records oldest first", recs)
	}
}

// TestSpansEndpoint pins the /spans window of a recorder that an operator
// feeds beside its registry: the newest n spans, oldest first, n=0 and a
// negative n empty, and a JSON form that decodes back to the same spans.
func TestSpansEndpoint(t *testing.T) {
	rec := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock(), SampleEvery: 4})
	j, err := engine.NewJoin(engine.Config{
		CacheSize: 4, Window: 16, Seed: 42,
		Telemetry: telemetry.NewRegistry(), Flight: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		j.Step(engine.Tuple{Key: i % 7}, engine.Tuple{Key: (i * 3) % 11})
	}

	all := rec.Spans()
	if len(all) < 3 {
		t.Fatalf("recorder holds %d spans, want several", len(all))
	}
	last := rec.LastSpans(2)
	if !reflect.DeepEqual(last, all[len(all)-2:]) {
		t.Fatalf("LastSpans(2) = %+v, want the newest two of %d", last, len(all))
	}
	body, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	var back []flightrec.Span
	if err := json.Unmarshal(body, &back); err != nil || !reflect.DeepEqual(back, last) {
		t.Fatalf("spans JSON %s decodes to %+v (%v)", body, back, err)
	}
	for _, n := range []int{0, -3} {
		if body, _ := json.Marshal(rec.LastSpans(n)); string(body) != "[]" {
			t.Fatalf("LastSpans(%d): %s, want []", n, body)
		}
	}
}
