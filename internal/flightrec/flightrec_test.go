package flightrec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/flightrec"
)

func TestSpanRingBasics(t *testing.T) {
	r := flightrec.New(flightrec.Options{RingSize: 8})
	for step := 0; step < 3; step++ {
		root := r.BeginStep(step)
		child := r.Begin(flightrec.PhaseProbe)
		r.End(child, 2, 0)
		r.EndStep(root, 1, 0)
	}
	if got := r.TotalSpans(); got != 6 {
		t.Fatalf("TotalSpans = %d, want 6", got)
	}
	spans := r.Spans()
	if len(spans) != 6 {
		t.Fatalf("len(Spans) = %d, want 6", len(spans))
	}
	// Spans complete child-before-root, oldest first.
	if spans[0].Phase != flightrec.PhaseProbe || spans[1].Phase != flightrec.PhaseStep {
		t.Fatalf("unexpected phase order: %v then %v", spans[0].Phase, spans[1].Phase)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, want root ID %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Step != 0 || spans[5].Step != 2 {
		t.Fatalf("steps = %d..%d, want 0..2", spans[0].Step, spans[5].Step)
	}
	for i, s := range spans {
		if s.End < s.Begin {
			t.Fatalf("span %d ends (%d) before it begins (%d)", i, s.End, s.Begin)
		}
		if i > 0 && s.End < spans[i-1].End {
			t.Fatalf("span %d out of completion order", i)
		}
	}
}

func TestSpanRingWrap(t *testing.T) {
	r := flightrec.New(flightrec.Options{RingSize: 4})
	for i := 0; i < 10; i++ {
		a := r.BeginStep(i)
		r.EndStep(a, 0, 0)
	}
	if got := r.TotalSpans(); got != 10 {
		t.Fatalf("TotalSpans = %d, want 10", got)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := 6 + i; s.Step != want {
			t.Fatalf("retained span %d has step %d, want %d (newest 4, oldest first)", i, s.Step, want)
		}
	}
}

func TestRingSizeRounding(t *testing.T) {
	r := flightrec.New(flightrec.Options{RingSize: 5})
	for i := 0; i < 100; i++ {
		a := r.BeginStep(i)
		r.EndStep(a, 0, 0)
	}
	if got := len(r.Spans()); got != 8 {
		t.Fatalf("RingSize 5 retained %d spans, want 8 (next power of two)", got)
	}
}

func TestLastSpans(t *testing.T) {
	r := flightrec.New(flightrec.Options{RingSize: 8})
	for i := 0; i < 5; i++ {
		a := r.BeginStep(i)
		r.EndStep(a, 0, 0)
	}
	if got := r.LastSpans(0); got == nil || len(got) != 0 {
		t.Fatalf("LastSpans(0) = %v, want empty non-nil", got)
	}
	if got := r.LastSpans(-3); got == nil || len(got) != 0 {
		t.Fatalf("LastSpans(-3) = %v, want empty non-nil", got)
	}
	got := r.LastSpans(2)
	if len(got) != 2 || got[0].Step != 3 || got[1].Step != 4 {
		t.Fatalf("LastSpans(2) steps = %v, want [3 4]", got)
	}
	if got := r.LastSpans(100); len(got) != 5 {
		t.Fatalf("LastSpans(100) len = %d, want all 5", len(got))
	}
}

func TestFailRecordsErrClass(t *testing.T) {
	r := flightrec.New(flightrec.Options{})
	root := r.BeginStep(0)
	a := r.BeginLabel(flightrec.PhaseRung, "FLOWEXPECT")
	r.Fail(a, 3, 1, "solver-budget")
	r.EndStep(root, 0, 0)
	spans := r.Spans()
	if spans[0].Err != "solver-budget" || spans[0].Label != "FLOWEXPECT" {
		t.Fatalf("failed span = %+v, want err class and label", spans[0])
	}
}

func TestLogicalClockDeterminism(t *testing.T) {
	run := func() []flightrec.Span {
		r := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock()})
		for i := 0; i < 4; i++ {
			root := r.BeginStep(i)
			c := r.Begin(flightrec.PhaseEvict)
			r.End(c, i, 0)
			r.EndStep(root, 0, 0)
		}
		return r.Spans()
	}
	a, b := run(), run()
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("identical runs under LogicalClock differ:\n%s\n%s", ab, bb)
	}
}

func TestEnsureClockRespectsPinned(t *testing.T) {
	pinned := flightrec.New(flightrec.Options{Clock: func() int64 { return 42 }})
	pinned.EnsureClock(func() int64 { return 7 })
	if got := pinned.Clock()(); got != 42 {
		t.Fatalf("EnsureClock replaced a pinned clock: got %d", got)
	}
	unpinned := flightrec.New(flightrec.Options{})
	unpinned.EnsureClock(func() int64 { return 7 })
	if got := unpinned.Clock()(); got != 7 {
		t.Fatalf("EnsureClock did not install on default clock: got %d", got)
	}
	// The first EnsureClock wins; later ones are ignored.
	unpinned.EnsureClock(func() int64 { return 9 })
	if got := unpinned.Clock()(); got != 7 {
		t.Fatalf("second EnsureClock replaced the first: got %d", got)
	}
}

func TestSamplingDeterministicAndSeedSensitive(t *testing.T) {
	a := flightrec.New(flightrec.Options{SampleSeed: 1, SampleEvery: 8})
	b := flightrec.New(flightrec.Options{SampleSeed: 1, SampleEvery: 8})
	c := flightrec.New(flightrec.Options{SampleSeed: 2, SampleEvery: 8})
	sampled, differs := 0, false
	for k := 0; k < 4096; k++ {
		if a.Sampled(k) != b.Sampled(k) {
			t.Fatalf("same seed disagrees on key %d", k)
		}
		if a.Sampled(k) {
			sampled++
		}
		if a.Sampled(k) != c.Sampled(k) {
			differs = true
		}
	}
	// 1-in-8 sampling over 4096 keys: expect ~512; allow a wide band.
	if sampled < 256 || sampled > 1024 {
		t.Fatalf("sampled %d of 4096 keys at rate 1/8", sampled)
	}
	if !differs {
		t.Fatal("different seeds selected identical subsets")
	}
}

func TestSampleEveryOneTracksAll(t *testing.T) {
	r := flightrec.New(flightrec.Options{SampleEvery: 1})
	for k := 0; k < 100; k++ {
		if !r.Sampled(k) {
			t.Fatalf("SampleEvery=1 rejected key %d", k)
		}
	}
}

func TestLifecycle(t *testing.T) {
	r := flightrec.New(flightrec.Options{SampleEvery: 1, MaxTrackedKeys: 2, EventsPerKey: 4})
	for i := 0; i < 6; i++ {
		r.Life(7, flightrec.LifeEvent{Step: i, Kind: flightrec.LifeIngest, Stream: "R", TupleID: i})
	}
	r.Life(9, flightrec.LifeEvent{Step: 0, Kind: flightrec.LifeAdmit, Stream: "S", TupleID: 1})
	r.Life(11, flightrec.LifeEvent{Step: 0, Kind: flightrec.LifeAdmit, Stream: "S", TupleID: 2}) // over MaxTrackedKeys: dropped

	evs := r.Lifecycle(7)
	if len(evs) != 4 {
		t.Fatalf("key 7 retained %d events, want 4 (EventsPerKey)", len(evs))
	}
	for i, ev := range evs {
		if want := 2 + i; ev.Step != want {
			t.Fatalf("key 7 event %d has step %d, want %d (newest 4, oldest first)", i, ev.Step, want)
		}
	}
	if got := r.Lifecycle(11); got != nil {
		t.Fatalf("key over MaxTrackedKeys was tracked: %v", got)
	}
	if got := r.Lifecycle(8); got != nil {
		t.Fatalf("unseen key returned events: %v", got)
	}
	if keys := r.TrackedKeys(); len(keys) != 2 || keys[0] != 7 || keys[1] != 9 {
		t.Fatalf("TrackedKeys = %v, want [7 9]", keys)
	}
}

func TestZeroSteadyStateAllocations(t *testing.T) {
	r := flightrec.New(flightrec.Options{RingSize: 64, SampleEvery: 1, EventsPerKey: 8})
	// Warm the lifecycle ring past its append phase.
	for i := 0; i < 16; i++ {
		r.Life(5, flightrec.LifeEvent{Step: i, Kind: flightrec.LifeMatch, Stream: "R"})
	}
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		root := r.BeginStep(step)
		c := r.BeginLabel(flightrec.PhaseRung, "HEEB")
		r.End(c, 3, 1)
		r.Life(5, flightrec.LifeEvent{Step: step, Kind: flightrec.LifeMatch, Stream: "R"})
		r.EndStep(root, 1, 0)
		step++
	})
	if allocs != 0 {
		t.Fatalf("steady-state span+lifecycle recording allocates %.1f per step, want 0", allocs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := flightrec.New(flightrec.Options{RingSize: 128, SampleEvery: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := r.Begin(flightrec.PhaseSolve)
				r.Life(g, flightrec.LifeEvent{Step: i, Kind: flightrec.LifeMatch, Stream: "R"})
				r.End(a, 1, 0)
				_ = r.LastSpans(8)
			}
		}(g)
	}
	wg.Wait()
	if got := r.TotalSpans(); got != 8*200 {
		t.Fatalf("TotalSpans = %d, want %d", got, 8*200)
	}
}

func TestPhaseAndLifeKindJSONRoundTrip(t *testing.T) {
	for p := flightrec.PhaseStep; p <= flightrec.PhaseSolve; p++ {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back flightrec.Phase
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Fatalf("phase %v round-tripped to %v", p, back)
		}
	}
	var unknown flightrec.Phase
	if err := json.Unmarshal([]byte(`"from-the-future"`), &unknown); err != nil {
		t.Fatalf("unknown phase name must not error: %v", err)
	}
	if unknown.String() != "unknown" {
		t.Fatalf("unknown phase decoded to %q", unknown.String())
	}
	for k := flightrec.LifeIngest; k <= flightrec.LifeExpire; k++ {
		b, _ := json.Marshal(k)
		var back flightrec.LifeKind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("life kind %v round-tripped to %v (err %v)", k, back, err)
		}
	}
}

// TestChromeTraceSchema validates WriteChromeTrace output against the Chrome
// trace_event JSON Object Format: a traceEvents array of complete ("X")
// events, each with name/cat/ph/ts/dur/pid/tid, ts and dur in microseconds.
func TestChromeTraceSchema(t *testing.T) {
	r := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock()})
	root := r.BeginStep(3)
	c := r.BeginLabel(flightrec.PhaseRung, "HEEB")
	r.Fail(c, 4, 2, "model-diverged")
	r.EndStep(root, 1, 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents has %d events, want 2", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, field, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("event %d has ph %v, want complete event \"X\"", i, ev["ph"])
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d ts = %v, want non-negative number", i, ev["ts"])
		}
		dur, ok := ev["dur"].(float64)
		if !ok || dur < 0 {
			t.Fatalf("event %d dur = %v, want non-negative number", i, ev["dur"])
		}
	}
	if name := doc.TraceEvents[0]["name"]; name != "rung:HEEB" {
		t.Fatalf("labeled span exported as %v, want rung:HEEB", name)
	}
	args := doc.TraceEvents[0]["args"].(map[string]any)
	if args["err"] != "model-diverged" {
		t.Fatalf("failed span args = %v, want err class", args)
	}
	if args["step"].(float64) != 3 {
		t.Fatalf("span step exported as %v, want 3", args["step"])
	}
}

func TestChromeTraceDeterminism(t *testing.T) {
	render := func() []byte {
		r := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock()})
		for i := 0; i < 5; i++ {
			root := r.BeginStep(i)
			c := r.Begin(flightrec.PhaseProbe)
			r.End(c, i, 0)
			r.EndStep(root, i, 0)
		}
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatal("identical logical-clock runs rendered different Chrome traces")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := flightrec.New(flightrec.Options{
		Clock:       flightrec.LogicalClock(),
		SampleEvery: 1,
		BundleDir:   dir,
	})
	root := r.BeginStep(7)
	r.Life(42, flightrec.LifeEvent{Step: 7, Kind: flightrec.LifeAdmit, Stream: "R", TupleID: 14})
	r.EndStep(root, 2, 1)

	payload := []byte("operator-state")
	bdir, err := r.WriteBundle(flightrec.BundleInfo{Reason: "Invariant #3!", Step: 7}, flightrec.BundleSources{
		Checkpoint: func(w io.Writer) error { return checkpoint.Write(w, payload) },
		Telemetry:  func(w io.Writer) error { _, err := io.WriteString(w, `{"m":1}`); return err },
		Downgrades: func(w io.Writer) error { _, err := io.WriteString(w, `[]`); return err },
	})
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(bdir)
	if base != "bundle-0000-step00000007-invariant--3-" {
		t.Fatalf("bundle dir %q not deterministic/sanitized", base)
	}

	b, err := flightrec.LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Version != flightrec.BundleVersion || b.Manifest.Reason != "Invariant #3!" || b.Manifest.Step != 7 {
		t.Fatalf("manifest = %+v", b.Manifest)
	}
	if b.Manifest.Spans != 1 || b.Manifest.SpansTotal != 1 || b.Manifest.TrackedKeys != 1 {
		t.Fatalf("manifest counts = %+v", b.Manifest)
	}
	wantFiles := []string{"spans.json", "trace.json", "lifecycle.json", "telemetry.json", "downgrades.json", "checkpoint.sscp"}
	if strings.Join(b.Manifest.Files, ",") != strings.Join(wantFiles, ",") {
		t.Fatalf("manifest files = %v, want %v", b.Manifest.Files, wantFiles)
	}
	if len(b.Spans) != 1 || b.Spans[0].Phase != flightrec.PhaseStep || b.Spans[0].Step != 7 {
		t.Fatalf("loaded spans = %+v", b.Spans)
	}
	if len(b.Lifecycle) != 1 || b.Lifecycle[0].Key != 42 || b.Lifecycle[0].Total != 1 {
		t.Fatalf("loaded lifecycle = %+v", b.Lifecycle)
	}
	got, err := checkpoint.Read(bytes.NewReader(b.Checkpoint))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("embedded checkpoint payload = %q, %v", got, err)
	}
}

func TestBundleCheckpointFailureKeepsBundle(t *testing.T) {
	dir := t.TempDir()
	r := flightrec.New(flightrec.Options{BundleDir: dir})
	a := r.BeginStep(0)
	r.EndStep(a, 0, 0)
	bdir, err := r.WriteBundle(flightrec.BundleInfo{Reason: "panic", Step: 0}, flightrec.BundleSources{
		Checkpoint: func(io.Writer) error { return fmt.Errorf("cache inconsistent") },
	})
	if err != nil {
		t.Fatalf("a failing checkpoint source must not fail the bundle: %v", err)
	}
	b, err := flightrec.LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.CheckpointError == "" || b.Checkpoint != nil {
		t.Fatalf("manifest = %+v, checkpoint = %v; want recorded error and no checkpoint", b.Manifest, b.Checkpoint)
	}
	if _, err := os.Stat(filepath.Join(bdir, "checkpoint.sscp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial checkpoint.sscp left behind: %v", err)
	}
}

func TestBundleLimitsAndErrors(t *testing.T) {
	r := flightrec.New(flightrec.Options{})
	if _, err := r.WriteBundle(flightrec.BundleInfo{}, flightrec.BundleSources{}); !errors.Is(err, flightrec.ErrNoBundleDir) {
		t.Fatalf("no BundleDir: err = %v, want ErrNoBundleDir", err)
	}
	r = flightrec.New(flightrec.Options{BundleDir: t.TempDir(), MaxBundles: 2})
	for i := 0; i < 2; i++ {
		if _, err := r.WriteBundle(flightrec.BundleInfo{Reason: "signal", Step: i}, flightrec.BundleSources{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.WriteBundle(flightrec.BundleInfo{Reason: "signal", Step: 2}, flightrec.BundleSources{}); !errors.Is(err, flightrec.ErrBundleLimit) {
		t.Fatalf("over MaxBundles: err = %v, want ErrBundleLimit", err)
	}
}

func TestLoadBundleRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r := flightrec.New(flightrec.Options{BundleDir: dir})
	bdir, err := r.WriteBundle(flightrec.BundleInfo{Reason: "signal", Step: 0}, flightrec.BundleSources{
		Checkpoint: func(w io.Writer) error { return checkpoint.Write(w, []byte("state")) },
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(bdir, "checkpoint.sscp")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // corrupt the CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flightrec.LoadBundle(bdir); !errors.Is(err, checkpoint.ErrChecksum) {
		t.Fatalf("corrupt checkpoint: err = %v, want ErrChecksum", err)
	}
}

func TestLoadBundleRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	r := flightrec.New(flightrec.Options{BundleDir: dir})
	bdir, err := r.WriteBundle(flightrec.BundleInfo{Reason: "signal", Step: 0}, flightrec.BundleSources{})
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(bdir, "manifest.json")
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(man, []byte(`"version": 1`), []byte(`"version": 99`), 1)
	if bytes.Equal(future, man) {
		t.Fatal("test did not rewrite the manifest version")
	}
	if err := os.WriteFile(manPath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flightrec.LoadBundle(bdir); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future-version bundle loaded: err = %v", err)
	}
}
