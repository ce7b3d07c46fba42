package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stochstream/internal/flightrec"
)

var slowFigures = flag.Bool("slow-figures", false, "TestFiguresMatchRecordedRun also regenerates figures 8 and 19 and ablation a1 (about 30 s each)")

// figureSection returns figure id's section of a repro listing: its lines from
// the "fig<id>:" title (an ablation's is "a<n>:") up to, not including, the
// "[figure <id> regenerated in ...]" line, whose timing is all that differs
// from run to run.
func figureSection(listing, id string) string {
	title := "fig" + id + ":"
	if strings.HasPrefix(id, "a") {
		title = id + ":"
	}
	var section []string
	for _, line := range strings.Split(listing, "\n") {
		switch {
		case strings.HasPrefix(line, title):
			section = []string{line}
		case section == nil:
		case strings.HasPrefix(line, "  [figure "+id+" regenerated in "):
			return strings.Join(section, "\n")
		default:
			section = append(section, line)
		}
	}
	return ""
}

// TestFiguresMatchRecordedRun regenerates figures and ablations at paper scale
// and requires each section to read exactly as in the reference runs
// EXPERIMENTS.md quotes: experiments_run.txt for the figures,
// ablation_run.txt for the ablations. Figures 6, 7 and 13–18 and ablation a2
// take a few seconds together; figures 8 and 19 and ablation a1 take about
// 30 s or more each and run with
//
//	go test ./cmd/repro -run TestFiguresMatchRecordedRun -args -slow-figures
//
// (scripts/ci.sh does). Figures 9–12 take minutes each and are left out.
func TestFiguresMatchRecordedRun(t *testing.T) {
	for _, rec := range []struct {
		file string
		ids  []string
	}{
		{"experiments_run.txt", []string{"6", "7", "8", "13", "14", "15", "16", "17", "18", "19"}},
		{"ablation_run.txt", []string{"a1", "a2"}},
	} {
		recorded, err := os.ReadFile("../../" + rec.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range rec.ids {
			name := "fig" + id
			if strings.HasPrefix(id, "a") {
				name = id
			}
			t.Run(name, func(t *testing.T) {
				if (id == "8" || id == "19" || id == "a1") && !*slowFigures {
					t.Skip("about 30 s or more at paper scale; run with -args -slow-figures")
				}
				want := figureSection(string(recorded), id)
				if want == "" {
					t.Fatalf("%s has no figure %s section", rec.file, id)
				}
				var out bytes.Buffer
				if err := run([]string{"-figure", id, "-paper"}, &out); err != nil {
					t.Fatal(err)
				}
				got := figureSection(out.String(), id)
				if got == want {
					return
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range max(len(gl), len(wl)) {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("figure %s line %d differs from %s:\n  regenerated %q\n  recorded    %q", id, i+1, rec.file, g, w)
					}
				}
			})
		}
	}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"6", "19", "a1", "a2"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %q:\n%s", id, out)
		}
	}
}

func TestRunMissingFigure(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -figure should error")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-figure", "999"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown figure should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag should error")
	}
}

func TestRunFigure7AllFormats(t *testing.T) {
	var table, csvOut, chart bytes.Buffer
	if err := run([]string{"-figure", "7"}, &table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "TOWER") || !strings.Contains(table.String(), "regenerated") {
		t.Fatalf("table output:\n%s", table.String())
	}
	if err := run([]string{"-figure", "7", "-csv"}, &csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvOut.String(), "value,TOWER,ROOF,FLOOR") {
		t.Fatalf("csv header: %q", strings.SplitN(csvOut.String(), "\n", 2)[0])
	}
	if err := run([]string{"-figure", "7", "-chart"}, &chart); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart.String(), "o=TOWER") {
		t.Fatalf("chart output:\n%s", chart.String())
	}
}

func TestRunFigure6WithFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-figure", "6", "-cache", "5", "-seed", "3", "-runs", "1", "-len", "100"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "drift=4") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunMetricsFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-figure", "8", "-metrics", "-runs", "1", "-len", "300"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The acceptance surface: step-latency buckets, policy-labeled metrics
	// and at least one decision-trace record with per-candidate scores.
	for _, want := range []string{
		"# TYPE join_step_latency_ns histogram",
		"join_step_latency_ns_bucket",
		"join_steps_total",
		`policy_decisions_total{policy="HEEB"}`,
		"# decision_trace ",
		`"policy":"HEEB"`,
		`"score":`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-figure", "8", "-trace", "3", "-runs", "1", "-len", "300"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "# TYPE") {
		t.Fatal("-trace alone must not dump the full metric set")
	}
	jsonLines := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, `{"step":`) {
			jsonLines++
		}
	}
	if jsonLines == 0 || jsonLines > 3 {
		t.Fatalf("trace lines = %d, want 1..3:\n%s", jsonLines, out)
	}
}

func TestRunRealDataFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("1981-01-01,")
		sb.WriteString([]string{"14.5", "15.2", "16.8", "13.9", "17.4"}[i%5])
		sb.WriteString("\n")
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-figure", "13", "-real-data", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "user trace") {
		t.Fatalf("title should mention the trace:\n%s", buf.String())
	}
	// Missing file propagates as an error.
	if err := run([]string{"-figure", "13", "-real-data", filepath.Join(dir, "missing")}, &buf); err == nil {
		t.Fatal("missing trace file should error")
	}
}

func TestRunCheckpointRestoreFlags(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "demo.ckpt")

	// Phase 1: 300 steps, checkpoint.
	var first bytes.Buffer
	if err := run([]string{"-checkpoint", ckpt, "-len", "300", "-seed", "5", "-cache", "8"}, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "steps 300") || !strings.Contains(first.String(), "checkpoint written") {
		t.Fatalf("checkpoint run output:\n%s", first.String())
	}

	// Phase 2: restore and replay 200 more steps.
	var resumed bytes.Buffer
	if err := run([]string{"-restore", ckpt, "-len", "200", "-seed", "5", "-cache", "8"}, &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resuming at step 300") {
		t.Fatalf("restore run output:\n%s", resumed.String())
	}

	// Reference: 500 uninterrupted steps. Its metrics line must match the
	// resumed run's exactly — the checkpoint cycle is invisible.
	var full bytes.Buffer
	if err := run([]string{"-checkpoint", filepath.Join(dir, "full.ckpt"), "-len", "500", "-seed", "5", "-cache", "8"}, &full); err != nil {
		t.Fatal(err)
	}
	metricsLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "demo join") {
				return line
			}
		}
		return ""
	}
	got, want := metricsLine(resumed.String()), metricsLine(full.String())
	if got == "" || got != want {
		t.Fatalf("resumed metrics %q, uninterrupted metrics %q", got, want)
	}
}

func TestRunBundleDirFlag(t *testing.T) {
	dir := t.TempDir()
	bundles := filepath.Join(dir, "bundles")

	// -bundle-dir alone runs the demo join with the recorder attached and
	// dumps a "signal" bundle at the end.
	var buf bytes.Buffer
	if err := run([]string{"-bundle-dir", bundles, "-len", "200", "-seed", "5", "-cache", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "steps 200") || !strings.Contains(out, `reason "signal"`) {
		t.Fatalf("bundle run output:\n%s", out)
	}

	// The printed directory must load as a valid bundle whose checkpoint
	// restores into a fresh demo join.
	var bundleDir string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bundle written to ") {
			bundleDir = strings.Fields(line)[3]
			bundleDir = strings.TrimSuffix(bundleDir, ":")
		}
	}
	if bundleDir == "" {
		t.Fatalf("no bundle path in output:\n%s", out)
	}
	b, err := flightrec.LoadBundle(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Step != 199 || len(b.Spans) == 0 || len(b.Checkpoint) == 0 {
		t.Fatalf("bundle step %d, %d spans, %d checkpoint bytes", b.Manifest.Step, len(b.Spans), len(b.Checkpoint))
	}
	ckpt := filepath.Join(dir, "from-bundle.ckpt")
	if err := os.WriteFile(ckpt, b.Checkpoint, 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run([]string{"-restore", ckpt, "-len", "100", "-seed", "5", "-cache", "8"}, &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resuming at step 200") {
		t.Fatalf("restore-from-bundle output:\n%s", resumed.String())
	}

	// -bundle-dir composes with -checkpoint in a single run.
	var both bytes.Buffer
	if err := run([]string{"-checkpoint", filepath.Join(dir, "demo.ckpt"), "-bundle-dir", bundles, "-len", "50", "-seed", "5"}, &both); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(both.String(), "checkpoint written") || !strings.Contains(both.String(), "bundle written") {
		t.Fatalf("combined run output:\n%s", both.String())
	}
}

func TestRunRestoreWrongConfig(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "demo.ckpt")
	if err := run([]string{"-checkpoint", ckpt, "-len", "50", "-seed", "5", "-cache", "8"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// A different cache size must be rejected, not silently mis-restored.
	if err := run([]string{"-restore", ckpt, "-len", "50", "-seed", "5", "-cache", "9"}, &bytes.Buffer{}); err == nil {
		t.Fatal("restore with a mismatched -cache should error")
	}
}

// shardedMetricsLines extracts the aggregate and per-shard metrics lines, the
// part of the output that must be identical between an uninterrupted run and
// a checkpoint-restore-replay run.
func shardedMetricsLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sharded demo join") || strings.HasPrefix(line, "  shard ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestRunShardedDemoFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-shards", "4", "-batch", "32", "-len", "400", "-seed", "5", "-cache", "16"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sharded demo join (shards 4, total cache 16") {
		t.Fatalf("missing aggregate line:\n%s", out)
	}
	if !strings.Contains(out, "steps 400") || !strings.Contains(out, "batches 13") {
		t.Fatalf("wrong step/batch accounting:\n%s", out)
	}
	for _, want := range []string{"  shard 0:", "  shard 1:", "  shard 2:", "  shard 3:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunShardedCheckpointRestoreFlags(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sharded.ckpt")

	// Lengths are multiples of the 64-step batch so the restored run's batch
	// boundaries line up with the uninterrupted run's and even the batch
	// counter matches; the engine state itself is batch-boundary-invariant.
	var first bytes.Buffer
	if err := run([]string{"-shards", "3", "-checkpoint", ckpt, "-len", "320", "-seed", "5", "-cache", "12"}, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "steps 320") || !strings.Contains(first.String(), "sharded checkpoint written") {
		t.Fatalf("checkpoint run output:\n%s", first.String())
	}

	var resumed bytes.Buffer
	if err := run([]string{"-shards", "3", "-restore", ckpt, "-len", "192", "-seed", "5", "-cache", "12"}, &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resuming at step 320") {
		t.Fatalf("restore run output:\n%s", resumed.String())
	}

	// Reference: 512 uninterrupted steps with the same batching. Aggregate
	// and per-shard metrics must match the resumed run exactly.
	var full bytes.Buffer
	if err := run([]string{"-shards", "3", "-len", "512", "-seed", "5", "-cache", "12"}, &full); err != nil {
		t.Fatal(err)
	}
	got, want := shardedMetricsLines(resumed.String()), shardedMetricsLines(full.String())
	if got == "" || got != want {
		t.Fatalf("resumed metrics:\n%s\nuninterrupted metrics:\n%s", got, want)
	}
}

func TestRunShardedRestoreWrongConfig(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sharded.ckpt")
	if err := run([]string{"-shards", "2", "-checkpoint", ckpt, "-len", "50", "-seed", "5", "-cache", "8"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// A different shard count must be rejected, not silently re-partitioned.
	if err := run([]string{"-shards", "4", "-restore", ckpt, "-len", "50", "-seed", "5", "-cache", "8"}, &bytes.Buffer{}); err == nil {
		t.Fatal("restore with a mismatched -shards should error")
	}
}

func TestRunShardedBadBatch(t *testing.T) {
	if err := run([]string{"-shards", "2", "-batch", "0", "-len", "50"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-batch 0 should error")
	}
}
