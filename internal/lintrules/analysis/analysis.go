// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that the stochlint analyzers
// use. The build environment for this repository is fully offline (empty
// module cache, no proxy), so the x/tools module cannot be a dependency;
// this package keeps the same shape — Analyzer, Pass, Reportf — so the
// analyzers can be moved onto the real framework by swapping one import
// when x/tools becomes available.
//
// Beyond the x/tools subset, this package implements the repo's suppression
// directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive suppresses matching diagnostics on its own line (trailing
// comment) and on the immediately following line (standalone comment). The
// reason is mandatory; a bare directive suppresses nothing. Directives are
// audited: SuppressionTable tracks which directives actually suppressed a
// diagnostic, and Audit turns stale or malformed directives into findings of
// the pseudo-analyzer "staleignore".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one static check. Run inspects the package held by the
// Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (interface{}, error)
}

// Pass is the interface between one Analyzer and one package being checked.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned by token.Pos within the pass's
// FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a resolved diagnostic: file position plus the analyzer that
// produced it. This is what drivers print and what tests compare against.
// Suppressed findings are retained (for the driver's -json output and the
// suppression audit); only unsuppressed findings gate CI.
type Finding struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// SortFindings orders findings by (file, line, column, analyzer) — the
// deterministic output order every driver and test relies on.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// RunAnalyzerWith runs a over one type-checked package, marking findings
// covered by a directive in table as suppressed (and recording the directive
// use for the audit).
func RunAnalyzerWith(a *Analyzer, table *SuppressionTable, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	var out []Finding
	for _, d := range pass.diags {
		pos := fset.Position(d.Pos)
		out = append(out, Finding{
			Pos:        pos,
			Analyzer:   a.Name,
			Message:    d.Message,
			Suppressed: table.Suppresses(a.Name, pos),
		})
	}
	SortFindings(out)
	return out, nil
}

// Directive is one parsed //lint:ignore comment.
type Directive struct {
	// Pos is the position of the comment itself.
	Pos token.Position
	// Names are the analyzer names the directive claims to suppress ("*"
	// suppresses every analyzer).
	Names []string
	// Reason is the mandatory free-text justification; empty when the
	// directive is malformed (and therefore inert).
	Reason string

	used bool
}

// SuppressionTable indexes every //lint:ignore directive of a run and
// records which ones earned their keep. It is safe for concurrent use by
// the driver's per-package workers.
type SuppressionTable struct {
	mu sync.Mutex
	// byLine maps file → line → directives covering that line (a directive
	// covers its own line and the next).
	byLine map[string]map[int][]*Directive
	dirs   []*Directive
	seen   map[string]bool // files already collected
}

// NewSuppressionTable returns an empty table.
func NewSuppressionTable() *SuppressionTable {
	return &SuppressionTable{
		byLine: map[string]map[int][]*Directive{},
		seen:   map[string]bool{},
	}
}

const ignorePrefix = "//lint:ignore"

// AddFiles collects the directives of files into the table. Files already
// collected (by filename) are skipped, so overlapping package loads are
// safe.
func (t *SuppressionTable) AddFiles(fset *token.FileSet, files []*ast.File) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		if t.seen[fname] {
			continue
		}
		t.seen[fname] = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != ignorePrefix && !strings.HasPrefix(c.Text, ignorePrefix+" ") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				d := &Directive{Pos: fset.Position(c.Pos())}
				if len(fields) > 0 {
					for _, n := range strings.Split(fields[0], ",") {
						if n = strings.TrimSpace(n); n != "" {
							d.Names = append(d.Names, n)
						}
					}
				}
				if len(fields) > 1 {
					d.Reason = strings.Join(fields[1:], " ")
				}
				t.dirs = append(t.dirs, d)
				byLine := t.byLine[d.Pos.Filename]
				if byLine == nil {
					byLine = map[int][]*Directive{}
					t.byLine[d.Pos.Filename] = byLine
				}
				for _, ln := range []int{d.Pos.Line, d.Pos.Line + 1} {
					byLine[ln] = append(byLine[ln], d)
				}
			}
		}
	}
}

// Suppresses reports whether a well-formed directive covers a finding of
// analyzer at pos, marking the directive used. A directive without a reason
// is inert: it suppresses nothing (and the audit flags it).
func (t *SuppressionTable) Suppresses(analyzer string, pos token.Position) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	hit := false
	for _, d := range t.byLine[pos.Filename][pos.Line] {
		if d.Reason == "" {
			continue
		}
		for _, n := range d.Names {
			if n == analyzer || n == "*" {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// StaleignoreName is the pseudo-analyzer the suppression audit reports
// under. It is not a registered Analyzer: its findings come from Audit, not
// from a Run over a package, and they cannot themselves be suppressed.
const StaleignoreName = "staleignore"

// Audit returns one staleignore finding per defective directive in the
// given file set: directives naming an analyzer outside known, directives
// without the mandatory reason, and well-formed directives that suppressed
// nothing in this run. Call it only after every applicable analyzer has run
// over every file in files, or live directives will be reported as stale.
func (t *SuppressionTable) Audit(known func(name string) bool, files map[string]bool) []Finding {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Finding
	report := func(d *Directive, format string, args ...interface{}) {
		out = append(out, Finding{
			Pos:      d.Pos,
			Analyzer: StaleignoreName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, d := range t.dirs {
		if files != nil && !files[d.Pos.Filename] {
			continue
		}
		if len(d.Names) == 0 {
			report(d, "bare //lint:ignore directive: name the analyzer(s) and give a reason")
			continue
		}
		bad := false
		for _, n := range d.Names {
			if n != "*" && !known(n) {
				report(d, "//lint:ignore names unknown analyzer %q (known analyzers are listed in docs/static-analysis.md)", n)
				bad = true
			}
		}
		if bad {
			continue
		}
		if d.Reason == "" {
			report(d, "//lint:ignore %s without a reason: the justification is mandatory and the directive is inert until one is given", strings.Join(d.Names, ","))
			continue
		}
		if !d.used {
			report(d, "stale //lint:ignore %s: no finding on this line to suppress; delete the directive or fix the drift", strings.Join(d.Names, ","))
		}
	}
	SortFindings(out)
	return out
}
