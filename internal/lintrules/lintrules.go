// Package lintrules is stochlint's analyzer suite: four custom static checks
// that mechanically enforce the determinism and correctness contracts the
// paper's guarantees rest on (Theorem 3 dominance optimality and the
// Corollary 3–5 incremental updates require every replacement decision to be
// a pure, deterministic function of stream state).
//
// The analyzers — maprange, floateq, stepretain, locksafe — are syntactic or
// type-based per-package checks. The state contracts are left to tests: that
// a checkpoint captures every field a restore needs to the replay tests,
// which restore every codec and compare the run with an uninterrupted one;
// that the config fingerprint covers every Config field to the
// field-by-field mismatch tests of internal/engine and internal/shardrt; and
// that every wire constant is handled to internal/streamd/wire's
// constant-by-constant tables.
//
// Each analyzer is kept by a mutant of the real tree that it alone kills;
// contracts that a test, go vet or the compiler already enforces are left to
// them. scripts/mutants.sh runs the corpus and docs/static-analysis.md ("Kill
// matrix") records which check kills each mutant.
//
// The analyzers are built on internal/lintrules/analysis, an offline mirror
// of the golang.org/x/tools/go/analysis API. cmd/stochlint is the
// multichecker driver; docs/static-analysis.md documents each rule, its
// rationale and the //lint:ignore suppression directive.
package lintrules

import (
	"strings"

	"stochstream/internal/lintrules/analysis"
)

// Rule pairs an analyzer with the set of packages it applies to. Scoping
// lives here, in the suite, not in the analyzers: analysistest runs an
// analyzer directly on a corpus package regardless of scope.
type Rule struct {
	Analyzer *analysis.Analyzer
	// Applies reports whether the analyzer runs on the package with the
	// given import path.
	Applies func(pkgPath string) bool
}

// decisionPkgs are the packages whose code decides replacements, or
// checkpoints, replays, routes and serves those decisions: the paper's
// guarantees require their behavior to be a deterministic function of stream
// state and seed, so Go's randomized map order must not reach what they
// decide or emit. The daemon's subpackages (wire, client) are caught by the
// prefix match.
var decisionPkgs = []string{
	"stochstream/internal/core",
	"stochstream/internal/policy",
	"stochstream/internal/cachepolicy",
	"stochstream/internal/engine",
	"stochstream/internal/mincostflow",
	"stochstream/internal/checkpoint",
	"stochstream/internal/flightrec",
	"stochstream/internal/shardrt",
	"stochstream/internal/streamd",
}

// emissionPkgs additionally carry result emission and metric export, whose
// output must be byte-identical across replays.
var emissionPkgs = append([]string{
	"stochstream/internal/join",
	"stochstream/internal/telemetry",
}, decisionPkgs...)

func inAny(pkgPath string, roots []string) bool {
	for _, r := range roots {
		if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
			return true
		}
	}
	return false
}

func everywhere(string) bool { return true }

// Rules returns the stochlint suite with its package scoping.
func Rules() []Rule {
	return []Rule{
		{Maprange, func(p string) bool { return inAny(p, emissionPkgs) }},
		{Floateq, everywhere},
		{Stepretain, everywhere},
		{Locksafe, everywhere},
	}
}

// Analyzers returns the four analyzers without scoping, for tests and docs.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Maprange, Floateq, Stepretain, Locksafe}
}
