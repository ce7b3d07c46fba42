package telemetry_test

import (
	"bytes"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/flightrec"
	"stochstream/internal/telemetry"
)

// exportRun drives a seeded operator with a flight recorder on a logical
// clock and returns the two observability exports: the registry's JSON
// snapshot (the /metrics.json body) and the recorder's Chrome trace.
func exportRun(t *testing.T, seed uint64) (metricsJSON, chromeTrace []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := flightrec.New(flightrec.Options{
		Clock:       flightrec.LogicalClock(),
		SampleEvery: 4,
	})
	j, err := engine.NewJoin(engine.Config{
		CacheSize: 4,
		Window:    16,
		Seed:      seed,
		Telemetry: reg,
		Flight:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		j.Step(engine.Tuple{Key: i % 7}, engine.Tuple{Key: (i * 3) % 11})
	}
	var mj, ct bytes.Buffer
	if err := reg.WriteJSON(&mj); err != nil {
		t.Fatal(err)
	}
	if err := flightrec.WriteChromeTrace(&ct, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return mj.Bytes(), ct.Bytes()
}

// TestFlightExportByteIdentical extends the export-determinism contract to
// the flight-recorder surfaces: two operators built from the same seed, each
// with its own registry and logical-clock recorder, must export byte-identical
// /metrics.json snapshots AND byte-identical Chrome traces. Wall time leaking
// into span timestamps, latency histograms, or the decision trace would break
// this immediately.
func TestFlightExportByteIdentical(t *testing.T) {
	mjA, ctA := exportRun(t, 42)
	mjB, ctB := exportRun(t, 42)

	if len(mjA) == 0 || len(ctA) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(mjA, mjB) {
		t.Fatalf("metrics.json differs between identical seeded runs:\nA:\n%s\nB:\n%s", mjA, mjB)
	}
	if !bytes.Equal(ctA, ctB) {
		t.Fatalf("Chrome trace differs between identical seeded runs:\nA:\n%s\nB:\n%s", ctA, ctB)
	}

	// A different seed must actually change the exports — otherwise the
	// byte-identity assertions above would be vacuous.
	mjC, _ := exportRun(t, 43)
	if bytes.Equal(mjA, mjC) {
		t.Fatal("metrics.json identical across different seeds; determinism test is vacuous")
	}
}
