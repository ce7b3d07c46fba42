package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"stochstream/internal/lintrules"
)

// TestGoldenJSON pins the -json output over the seeded corpus byte for byte:
// the record schema (file/line/col/analyzer/message/suppressed), the
// deterministic ordering, the suppressed=true entry and the staleignore
// audit findings. Regenerate with STOCHLINT_UPDATE_GOLDEN=1 go test ./cmd/stochlint.
func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{JSON: true, Dir: "testdata/mod"}, []string{"./..."}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (unsuppressed findings present)", code)
	}
	golden := filepath.Join("testdata", "golden.json")
	if os.Getenv("STOCHLINT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestCleanCorpus pins the zero-finding contract: exit 0 and an empty array.
func TestCleanCorpus(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{JSON: true, Dir: "testdata/clean"}, []string{"./..."}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("output = %q, want empty JSON array", got)
	}
}

// TestStatecheckCorpusClean pins the statecheck mutation corpus as clean
// under the full suite; TestStatecheckMutants would be meaningless otherwise.
func TestStatecheckCorpusClean(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{Dir: "testdata/statecheck"}, []string{"./..."}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0:\n%s", code, buf.Bytes())
	}
}

// TestStatecheckMutants is the mutation self-test: in a throwaway copy of
// the statecheck corpus, dropping the marked line must fail the driver with a
// finding that names exactly what the drop exposed. An analyzer that stays
// silent here has gone blind to the one regression it exists to catch.
func TestStatecheckMutants(t *testing.T) {
	for _, m := range []struct{ marker, file, rule, want string }{
		{"ci:mutate-sort", "internal/streamd/streamd.go", "maprange", `appends to "names" which is never sorted`},
	} {
		t.Run(m.rule, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS("testdata/statecheck")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			kept := slices.DeleteFunc(strings.Split(string(src), "\n"), func(line string) bool {
				return strings.Contains(line, m.marker)
			})
			if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			code, err := run(options{Dir: dir, Rules: m.rule}, []string{"./..."}, &buf, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if code != 1 || !strings.Contains(buf.String(), m.want) {
				t.Errorf("exit code = %d, want 1 with a finding naming %q:\n%s", code, m.want, buf.Bytes())
			}
		})
	}
}

// TestRulesList pins -rules list: every suite analyzer, one per line, in
// suite order, without loading any packages (no patterns are resolved).
func TestRulesList(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{Rules: "list"}, nil, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	lines := strings.Fields(buf.String())
	rules := lintrules.Rules()
	if len(lines) != len(rules) {
		t.Fatalf("-rules list printed %d names, suite has %d:\n%s", len(lines), len(rules), buf.String())
	}
	for i, r := range rules {
		if lines[i] != r.Analyzer.Name {
			t.Errorf("line %d = %q, want %q (suite order)", i, lines[i], r.Analyzer.Name)
		}
	}
	for _, name := range []string{"maprange", "floateq", "stepretain", "locksafe"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-rules list missing %s", name)
		}
	}
}

// TestRulesSubset pins -rules subsetting over the seeded corpus: only the
// selected analyzer reports, the staleignore audit is skipped (a subset run
// cannot judge directives for unselected analyzers), and the -json record
// schema is byte-identical to the full run's — exactly the keys file, line,
// col, analyzer, message, suppressed.
func TestRulesSubset(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{JSON: true, Rules: "stepretain", Dir: "testdata/mod"}, []string{"./..."}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (the corpus seeds a stepretain finding)", code)
	}
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("subset -json output is not a bare finding array: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("subset run found nothing (the corpus seeds a stepretain finding)")
	}
	wantKeys := []string{"analyzer", "col", "file", "line", "message", "suppressed"}
	for _, rec := range raw {
		keys := make([]string, 0, len(rec))
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, wantKeys) {
			t.Fatalf("-json record keys = %v, want %v", keys, wantKeys)
		}
	}
	var findings []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &findings); err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer != "stepretain" {
			t.Errorf("subset run leaked %s finding at %s:%d (staleignore must be skipped too)", f.Analyzer, f.File, f.Line)
		}
	}
}

// TestRulesUnknown pins the error contract: a typo'd analyzer name is an
// infrastructure error (exit 2 in main), naming both the unknown analyzer
// and the valid suite.
func TestRulesUnknown(t *testing.T) {
	_, err := run(options{Rules: "stepretian", Dir: "testdata/mod"}, []string{"./..."}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown -rules name must error")
	}
	if !strings.Contains(err.Error(), "stepretian") || !strings.Contains(err.Error(), "stepretain") {
		t.Errorf("error must name the unknown analyzer and the suite, got: %v", err)
	}
}

// TestTextHidesSuppressed pins the text mode's contract: suppressed findings
// stay out of the human-facing report (they are visible via -json).
func TestTextHidesSuppressed(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{Dir: "testdata/mod"}, []string{"./..."}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if bytes.Contains(buf.Bytes(), []byte("policy.go:10")) {
		t.Errorf("text output leaks the suppressed finding:\n%s", buf.Bytes())
	}
	if !bytes.Contains(buf.Bytes(), []byte("[stepretain]")) || !bytes.Contains(buf.Bytes(), []byte("[staleignore]")) {
		t.Errorf("text output missing expected findings:\n%s", buf.Bytes())
	}
}
