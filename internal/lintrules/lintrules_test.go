package lintrules_test

import (
	"os"
	"path/filepath"
	"strings"
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

// TestStaleignore runs the whole suite plus the suppression audit over the
// staleignore corpus: live directives stay silent, stale and misnamed ones
// report under the "staleignore" pseudo-analyzer.
func TestStaleignore(t *testing.T) {
	analysistest.RunSuite(t, testdata(t), lintrules.Analyzers(), "staleignore", true)
}

// TestScoping pins the suite's package scoping: maprange covers the decision
// and emission/export packages, and the remaining analyzers everything.
func TestScoping(t *testing.T) {
	byName := map[string]lintrules.Rule{}
	for _, r := range lintrules.Rules() {
		byName[r.Analyzer.Name] = r
	}
	if len(byName) != 4 {
		t.Fatalf("expected 4 rules, got %d", len(byName))
	}
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"maprange", "stochstream/internal/policy", true},
		{"maprange", "stochstream/internal/engine", true},
		{"maprange", "stochstream/internal/checkpoint", true},
		{"maprange", "stochstream/internal/streamd/wire", true},
		{"maprange", "stochstream/internal/shardrt", true},
		{"stepretain", "stochstream/internal/shardrt", true},
		{"locksafe", "stochstream/internal/shardrt", true},
		{"maprange", "stochstream/internal/flightrec", true},
		{"maprange", "stochstream/internal/stats", false},
		{"maprange", "stochstream/internal/telemetry", true},
		{"maprange", "stochstream/internal/join", true},
		{"maprange", "stochstream/internal/workload", false},
		{"floateq", "stochstream/internal/workload", true},
		{"stepretain", "stochstream", true},
		{"locksafe", "stochstream/cmd/repro", true},
		{"maprange", "stochstream/internal/streamd/client", true},
		{"floateq", "stochstream/internal/engine", true},
	}
	for _, c := range cases {
		if got := byName[c.analyzer].Applies(c.pkg); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

// TestMutantCorpusCoversSuite pins the suite to its evidence, the mutant
// corpus in scripts/mutants: every analyzer is the only killer a patch's
// Killers header names (the mutant no test, vet or build kills), and every
// stochlint:<analyzer> killer names an analyzer still in the suite. An
// analyzer cannot join the suite without a mutant, nor leave it with a
// killer that scripts/mutants.sh could no longer run.
func TestMutantCorpusCoversSuite(t *testing.T) {
	patches, err := filepath.Glob(filepath.Join("..", "..", "scripts", "mutants", "*.patch"))
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Fatal("no scripts/mutants/*.patch found")
	}
	inSuite := map[string]bool{}
	for _, a := range lintrules.Analyzers() {
		inSuite[a.Name] = true
	}
	alone := map[string]bool{}
	for _, p := range patches {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var killers []string
		for _, line := range strings.Split(string(src), "\n") {
			if rest, ok := strings.CutPrefix(line, "Killers:"); ok {
				killers = strings.Fields(rest)
				break
			}
		}
		if len(killers) == 0 {
			t.Errorf("%s: no Killers header", filepath.Base(p))
			continue
		}
		for _, k := range killers {
			if name, ok := strings.CutPrefix(k, "stochlint:"); ok && !inSuite[name] {
				t.Errorf("%s: killer %s names no analyzer in the suite", filepath.Base(p), k)
			}
		}
		if name, ok := strings.CutPrefix(killers[0], "stochlint:"); ok && len(killers) == 1 {
			alone[name] = true
		}
	}
	for _, a := range lintrules.Analyzers() {
		if !alone[a.Name] {
			t.Errorf("analyzer %s is the only killer of no mutant in scripts/mutants", a.Name)
		}
	}
}
