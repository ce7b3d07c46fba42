package flightrec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/flightrec"
)

// ringSize is the recorder's fixed span capacity.
const ringSize = 1024

func TestSpanRingBasics(t *testing.T) {
	r := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock()})
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
	r := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock()})
	for i := 0; i < ringSize+6; i++ {
		a := r.BeginStep(i)
		r.EndStep(a, 0, 0)
	}
	if got := r.TotalSpans(); got != ringSize+6 {
		t.Fatalf("TotalSpans = %d, want %d", got, ringSize+6)
	}
	spans := r.Spans()
	if len(spans) != ringSize {
		t.Fatalf("ring retained %d spans, want %d", len(spans), ringSize)
	}
	for i, s := range spans {
		if want := 6 + i; s.Step != want {
			t.Fatalf("retained span %d has step %d, want %d (newest %d, oldest first)", i, s.Step, want, ringSize)
		}
	}
}

func TestLastSpans(t *testing.T) {
	r := flightrec.New(flightrec.Options{Clock: flightrec.LogicalClock()})
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

// The lifecycle store tracks at most 128 keys with the newest 32 events each.
func TestLifecycle(t *testing.T) {
	const maxKeys, perKey = 128, 32
	r := flightrec.New(flightrec.Options{SampleEvery: 1})
	for i := 0; i < perKey+6; i++ {
		r.Life(7, flightrec.LifeEvent{Step: i, Kind: flightrec.LifeIngest, Stream: "R", TupleID: i})
	}
	r.Life(9, flightrec.LifeEvent{Step: 0, Kind: flightrec.LifeAdmit, Stream: "S", TupleID: 1})
	for k := 100; k < 100+maxKeys-2; k++ {
		r.Life(k, flightrec.LifeEvent{Step: 0, Kind: flightrec.LifeAdmit, Stream: "S", TupleID: k})
	}
	r.Life(11, flightrec.LifeEvent{Step: 0, Kind: flightrec.LifeAdmit, Stream: "S", TupleID: 2}) // the 129th key: dropped

	evs := r.Lifecycle(7)
	if len(evs) != perKey {
		t.Fatalf("key 7 retained %d events, want %d", len(evs), perKey)
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Step != want {
			t.Fatalf("key 7 event %d has step %d, want %d (newest %d, oldest first)", i, ev.Step, want, perKey)
		}
	}
	if got := r.Lifecycle(100 + maxKeys - 3); len(got) != 1 {
		t.Fatalf("the 128th key retained %v, want its one event", got)
	}
	if got := r.Lifecycle(11); got != nil {
		t.Fatalf("key over the 128-key bound was tracked: %v", got)
	}
	if got := r.Lifecycle(8); got != nil {
		t.Fatalf("unseen key returned events: %v", got)
	}
	if got := r.Lifecycle(9); len(got) != 1 {
		t.Fatalf("key 9 retained %v, want its one event", got)
	}
}

func TestZeroSteadyStateAllocations(t *testing.T) {
	r := flightrec.New(flightrec.Options{SampleEvery: 1})
	// Warm the lifecycle ring past its append phase.
	for i := 0; i < 40; i++ {
		r.Life(5, flightrec.LifeEvent{Step: i, Kind: flightrec.LifeMatch, Stream: "R"})
	}
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		root := r.BeginStep(step)
		c := r.Begin(flightrec.PhaseScore)
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
	r := flightrec.New(flightrec.Options{SampleEvery: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := r.Begin(flightrec.PhaseEvict)
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
	for p := flightrec.PhaseStep; p <= flightrec.PhaseCheckpoint; p++ {
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
	c := r.Begin(flightrec.PhaseScore)
	r.End(c, 4, 2)
	r.EndStep(root, 1, 0)

	var buf bytes.Buffer
	if err := flightrec.WriteChromeTrace(&buf, r.Spans()); err != nil {
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
	if name := doc.TraceEvents[0]["name"]; name != "score" {
		t.Fatalf("score span exported as %v, want score", name)
	}
	args := doc.TraceEvents[0]["args"].(map[string]any)
	if _, ok := args["label"]; ok || args["keys"].(float64) != 4 || args["detail"].(float64) != 2 {
		t.Fatalf("span args = %v, want 4 keys, detail 2 and no label", args)
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
		if err := flightrec.WriteChromeTrace(&buf, r.Spans()); err != nil {
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
	wantFiles := []string{"spans.json", "trace.json", "lifecycle.json", "telemetry.json", "checkpoint.sscp"}
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
	// A recorder writes at most 16 bundles, so a flapping fault cannot fill
	// the disk.
	const maxBundles = 16
	r = flightrec.New(flightrec.Options{BundleDir: t.TempDir()})
	for i := 0; i < maxBundles; i++ {
		if _, err := r.WriteBundle(flightrec.BundleInfo{Reason: "signal", Step: i}, flightrec.BundleSources{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.WriteBundle(flightrec.BundleInfo{Reason: "signal", Step: maxBundles}, flightrec.BundleSources{}); !errors.Is(err, flightrec.ErrBundleLimit) {
		t.Fatalf("bundle %d: err = %v, want ErrBundleLimit", maxBundles+1, err)
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

// TestLoadBundleWithDowngradeTrace: a version-1 bundle written while the
// operator still had a degradation ladder loads. The fixture was dumped on a
// ladder downgrade: it carries downgrades.json, which the loader ignores, and
// rung spans with an "err" field, whose phase decodes as unknown.
func TestLoadBundleWithDowngradeTrace(t *testing.T) {
	dir := filepath.Join("testdata", "bundle-0000-step00000001-downgrade")
	b, err := flightrec.LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Version != 1 || b.Manifest.Reason != "downgrade" || b.Manifest.Step != 1 {
		t.Fatalf("manifest = %+v", b.Manifest)
	}
	if !slices.Contains(b.Manifest.Files, "downgrades.json") {
		t.Fatalf("fixture manifest lists %v, want downgrades.json among them", b.Manifest.Files)
	}
	if len(b.Spans) != b.Manifest.Spans || len(b.Lifecycle) != b.Manifest.TrackedKeys || len(b.Checkpoint) == 0 {
		t.Fatalf("loaded %d spans, %d keys, %d checkpoint bytes for manifest %+v",
			len(b.Spans), len(b.Lifecycle), len(b.Checkpoint), b.Manifest)
	}
	var steps, unknown int
	for _, s := range b.Spans {
		switch s.Phase.String() {
		case "step":
			steps++
		case "unknown":
			unknown++
		}
	}
	if steps != 2 || unknown != 2 {
		t.Fatalf("fixture spans decode to %d step roots and %d unknown phases, want 2 and 2", steps, unknown)
	}
}
