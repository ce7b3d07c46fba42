// Command stochlint is the multichecker driver for the internal/lintrules
// analyzer suite: it type-checks the module's packages (offline, stdlib
// importer only), collects every //lint:ignore directive once, and runs each
// analyzer over its scoped package set.
//
//	go run ./cmd/stochlint ./...            # the CI invocation
//	go run ./cmd/stochlint -json ./...      # machine-readable findings
//	go run ./cmd/stochlint -C subdir ./...  # run as if started in subdir
//	go run ./cmd/stochlint -rules list      # print the suite's analyzer names
//	go run ./cmd/stochlint -rules maprange,floateq ./...
//
// Findings print as file:line:col: [analyzer] message, relative to the
// working directory when possible; any unsuppressed finding makes the exit
// status 1. Suppress a reviewed finding with a `//lint:ignore <analyzer>
// <reason>` comment on the offending line or the line above — the reason is
// mandatory, and stale or misnamed directives are themselves reported under
// the "staleignore" pseudo-analyzer. docs/static-analysis.md describes
// every rule.
//
// Packages load and are analyzed serially in sorted package order, so output
// is byte-identical across runs by construction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stochstream/internal/lintrules"
	"stochstream/internal/lintrules/analysis"
	"stochstream/internal/lintrules/load"
)

type options struct {
	// JSON switches output to a machine-readable finding array (including
	// suppressed findings, which the text mode hides).
	JSON bool
	// Dir runs the driver as if invoked from this directory (like git -C /
	// make -C): module-root discovery, pattern resolution and path
	// relativization all anchor there.
	Dir string
	// Rules selects an analyzer subset by comma-separated name; empty runs
	// the full suite. The special value "list" prints the suite's analyzer
	// names and exits. Subset runs skip the staleignore audit — a partial
	// run cannot tell whether a directive for an unselected analyzer is
	// stale.
	Rules string
}

func main() {
	fs := flag.NewFlagSet("stochlint", flag.ExitOnError)
	opts := options{}
	fs.BoolVar(&opts.JSON, "json", false, "emit findings as a JSON array (file/line/col/analyzer/message/suppressed)")
	fs.StringVar(&opts.Dir, "C", "", "run as if stochlint were started in `dir`")
	fs.StringVar(&opts.Rules, "rules", "", "comma-separated `names` of analyzers to run (\"list\" prints the suite and exits; default: all)")
	_ = fs.Parse(os.Args[1:])
	code, err := run(opts, fs.Args(), os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stochlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// jsonFinding is the -json record. The schema is part of the CI contract:
// scripts consuming it (and the golden file under testdata) pin these keys.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// run executes one driver invocation and returns its exit code: 0 clean,
// 1 when any unsuppressed finding (including staleignore audit findings)
// remains. Infrastructure failures return a non-nil error (exit 2 in main).
func run(opts options, patterns []string, stdout, stderr io.Writer) (int, error) {
	rules, fullSuite, err := selectRules(opts.Rules)
	if err != nil {
		return 0, err
	}
	if rules == nil { // -rules list
		for _, r := range lintrules.Rules() {
			fmt.Fprintln(stdout, r.Analyzer.Name)
		}
		return 0, nil
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	workdir := opts.Dir
	if workdir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return 0, err
		}
		workdir = wd
	}
	workdir, err = filepath.Abs(workdir)
	if err != nil {
		return 0, err
	}
	root, err := findModuleRoot(workdir)
	if err != nil {
		return 0, err
	}
	loader, err := load.NewLoader(root, "")
	if err != nil {
		return 0, err
	}
	paths, err := loader.List(patterns)
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no packages match %v", patterns)
	}

	pkgs := make([]*load.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return 0, err
		}
		pkgs = append(pkgs, pkg)
	}

	// One suppression table over every source package the load phase
	// touched (targets plus transitive module imports).
	table := analysis.NewSuppressionTable()
	for _, p := range loader.SourcePackages() {
		table.AddFiles(loader.Fset, p.Files)
	}

	var findings []analysis.Finding
	for _, pkg := range pkgs {
		for _, r := range rules {
			if !r.Applies(pkg.Path) {
				continue
			}
			fs, err := analysis.RunAnalyzerWith(r.Analyzer, table, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				return 0, err
			}
			findings = append(findings, fs...)
		}
	}

	// Suppression audit, scoped to the files actually analyzed: a directive
	// in a package outside the requested patterns may legitimately be
	// unused this run. Subset runs (-rules) skip it entirely — a directive
	// for an unselected analyzer had no chance to match, so its staleness
	// is unknowable.
	if fullSuite {
		known := map[string]bool{}
		for _, a := range lintrules.Analyzers() {
			known[a.Name] = true
		}
		analyzed := map[string]bool{}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				analyzed[pkg.Fset.Position(f.Pos()).Filename] = true
			}
		}
		findings = append(findings, table.Audit(func(n string) bool { return known[n] }, analyzed)...)
	}

	for i := range findings {
		findings[i].Pos.Filename = relativize(workdir, findings[i].Pos.Filename)
	}
	analysis.SortFindings(findings)

	unsuppressed := 0
	for _, f := range findings {
		if !f.Suppressed {
			unsuppressed++
		}
	}

	if opts.JSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:       f.Pos.Filename,
				Line:       f.Pos.Line,
				Col:        f.Pos.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return 0, err
		}
	} else {
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			fmt.Fprintln(stdout, f)
		}
		if unsuppressed > 0 {
			fmt.Fprintf(stderr, "stochlint: %d finding(s)\n", unsuppressed)
		}
	}
	if unsuppressed > 0 {
		return 1, nil
	}
	return 0, nil
}

// selectRules resolves the -rules value against the suite: "" keeps every
// rule (fullSuite true), "list" returns a nil slice (the caller prints the
// names and exits), and a comma-separated list picks that subset in suite
// order, rejecting names the suite does not have. Duplicate and empty
// segments are tolerated.
func selectRules(spec string) (rules []lintrules.Rule, fullSuite bool, err error) {
	all := lintrules.Rules()
	if spec == "" {
		return all, true, nil
	}
	if spec == "list" {
		return nil, false, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	names := make([]string, 0, len(all))
	for _, r := range all {
		names = append(names, r.Analyzer.Name)
		if want[r.Analyzer.Name] {
			rules = append(rules, r)
			delete(want, r.Analyzer.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, false, fmt.Errorf("-rules names unknown analyzer(s) %s (the suite has: %s)",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	if len(rules) == 0 {
		return nil, false, fmt.Errorf("-rules %q selects no analyzers", spec)
	}
	return rules, len(rules) == len(all), nil
}

// relativize rewrites an absolute filename relative to base when the result
// stays inside base; slashes are normalized so output (and the golden file)
// is platform-stable.
func relativize(base, filename string) string {
	if base == "" || filename == "" {
		return filename
	}
	rel, err := filepath.Rel(base, filename)
	if err != nil || rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
		return filename
	}
	return filepath.ToSlash(rel)
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
