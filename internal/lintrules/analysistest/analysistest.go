// Package analysistest runs analyzers over a corpus package under a
// testdata/src tree and checks their findings against `// want`
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest for
// the offline framework in internal/lintrules/analysis.
//
// Corpus layout follows the x/tools GOPATH convention: the package named by
// pkgPath lives at <testdata>/src/<pkgPath>, and corpora may fake module
// packages (e.g. a stub stochstream/internal/engine) by placing them under
// the same tree — the loader resolves overlay packages before anything
// else, and the standard library resolves normally.
//
// Every run builds one suppression table over the corpus package and
// everything it transitively loaded, as the cmd/stochlint driver does.
// Findings suppressed by a reasoned //lint:ignore are filtered before
// matching, like the driver's exit code.
//
// Expectations are comments of the form
//
//	code() // want "substring-regexp"
//	code() // want "first" "second"
//
// Each finding on a line must match one expectation on that line and vice
// versa; mismatches in either direction fail the test.
package analysistest

import (
	"regexp"
	"testing"

	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/load"
)

var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads <testdata>/src/<pkgPath>, runs a over it, and reports
// expectation mismatches on t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	RunSuite(t, testdata, []*analysis.Analyzer{a}, pkgPath, false)
}

// RunSuite runs several analyzers over one corpus package with a shared
// suppression table, optionally followed by the
// stale-suppression audit (findings under the "staleignore" name, scoped to
// the target package's files). Unsuppressed findings are matched against
// the corpus's `// want` expectations.
func RunSuite(t *testing.T, testdata string, as []*analysis.Analyzer, pkgPath string, audit bool) {
	t.Helper()
	loader, err := load.NewLoader("", testdata+"/src")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}
	if pkg.Files == nil {
		t.Fatalf("load %s: resolved outside the corpus", pkgPath)
	}

	table := analysis.NewSuppressionTable()
	for _, p := range loader.SourcePackages() {
		table.AddFiles(loader.Fset, p.Files)
	}

	var findings []analysis.Finding
	for _, a := range as {
		fs, err := analysis.RunAnalyzerWith(a, table, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			t.Fatalf("run %s: %v", a.Name, err)
		}
		findings = append(findings, fs...)
	}
	if audit {
		known := map[string]bool{}
		for _, a := range as {
			known[a.Name] = true
		}
		targetFiles := map[string]bool{}
		for _, f := range pkg.Files {
			targetFiles[pkg.Fset.Position(f.Pos()).Filename] = true
		}
		findings = append(findings, table.Audit(func(n string) bool { return known[n] }, targetFiles)...)
	}
	analysis.SortFindings(findings)

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		k := key{f.Pos.Filename, f.Pos.Line}
		if i := matchIndex(wants[k], f.Message); i >= 0 {
			wants[k] = append(wants[k][:i], wants[k][i+1:]...)
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, re)
		}
	}
}

func matchIndex(res []*regexp.Regexp, msg string) int {
	for i, re := range res {
		if re.MatchString(msg) {
			return i
		}
	}
	return -1
}
