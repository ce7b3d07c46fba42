package lintrules_test

import (
	"path/filepath"
	"testing"

	"stochstream/internal/lintrules"
	"stochstream/internal/lintrules/analysistest"
)

func testdata(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestDettaint(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Dettaint, "dettaint")
}

func TestMaprange(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Maprange, "maprange")
}

func TestFloateq(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Floateq, "floateq")
}

func TestStepretain(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Stepretain, "stepretain")
}

func TestLocksafe(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Locksafe, "locksafe")
}

func TestScorepure(t *testing.T) {
	analysistest.Run(t, testdata(t), lintrules.Scorepure, "scorepure")
}

// TestStaleignore runs the whole suite plus the suppression audit over the
// staleignore corpus: live directives stay silent, stale and misnamed ones
// report under the "staleignore" pseudo-analyzer.
func TestStaleignore(t *testing.T) {
	analysistest.RunSuite(t, testdata(t), lintrules.Analyzers(), "staleignore", true)
}

// TestScoping pins the suite's package scoping: dettaint covers exactly the
// decision packages, maprange additionally the emission/export packages,
// scorepure only the policy package, the state contracts (snapcomplete,
// fingerprintcover, wirexhaustive) their own serialization/protocol
// packages, and the remaining analyzers everything.
func TestScoping(t *testing.T) {
	byName := map[string]lintrules.Rule{}
	for _, r := range lintrules.Rules() {
		byName[r.Analyzer.Name] = r
	}
	if len(byName) != 9 {
		t.Fatalf("expected 9 rules, got %d", len(byName))
	}
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"dettaint", "stochstream/internal/policy", true},
		{"dettaint", "stochstream/internal/engine", true},
		{"dettaint", "stochstream/internal/checkpoint", true},
		{"dettaint", "stochstream/internal/faultinject", true},
		{"dettaint", "stochstream/internal/flightrec", true},
		{"dettaint", "stochstream/internal/shardrt", true},
		{"maprange", "stochstream/internal/shardrt", true},
		{"stepretain", "stochstream/internal/shardrt", true},
		{"locksafe", "stochstream/internal/shardrt", true},
		{"scorepure", "stochstream/internal/shardrt", false},
		{"maprange", "stochstream/internal/flightrec", true},
		{"dettaint", "stochstream/internal/stats", false}, // stats owns the RNGs
		{"dettaint", "stochstream/internal/telemetry", false},
		{"scorepure", "stochstream/internal/policy", true},
		{"scorepure", "stochstream/internal/engine", false},
		{"maprange", "stochstream/internal/telemetry", true},
		{"maprange", "stochstream/internal/join", true},
		{"maprange", "stochstream/internal/workload", false},
		{"floateq", "stochstream/internal/workload", true},
		{"stepretain", "stochstream", true},
		{"locksafe", "stochstream/cmd/repro", true},
		{"snapcomplete", "stochstream/internal/engine", true},
		{"snapcomplete", "stochstream/internal/shardrt", true},
		{"snapcomplete", "stochstream/internal/stats", true},
		{"snapcomplete", "stochstream/internal/telemetry", false},
		{"fingerprintcover", "stochstream/internal/engine", true},
		{"fingerprintcover", "stochstream/internal/shardrt", true},
		{"fingerprintcover", "stochstream/internal/policy", false},
		{"wirexhaustive", "stochstream/internal/streamd", true},
		{"wirexhaustive", "stochstream/internal/streamd/wire", true},
		{"wirexhaustive", "stochstream/internal/streamd/client", true},
		{"wirexhaustive", "stochstream/internal/engine", false},
	}
	for _, c := range cases {
		if got := byName[c.analyzer].Applies(c.pkg); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}
