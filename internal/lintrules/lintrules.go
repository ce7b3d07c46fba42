// Package lintrules is stochlint's analyzer suite: fifteen custom static
// checks that mechanically enforce the determinism and correctness
// contracts the paper's guarantees rest on (Theorem 3 dominance optimality
// and the Corollary 3–5 incremental updates require every replacement
// decision to be a pure, deterministic function of stream state).
//
// Eleven of the analyzers are interprocedural, running on per-function
// summaries computed over the whole module by internal/lintrules/dataflow
// (call graph, fixed-point solver, CFG def-use chains, field-access
// summaries), so a contract violation hidden behind any chain of helper
// calls still surfaces. Four of those — dettaint, stepescape, scorepure,
// errdiscipline — track value and purity contracts; four — goleak,
// chandiscipline, atomicfield, mergedet — are the concurrency-safety suite
// over the sharded runtime (goroutine termination, channel discipline,
// atomic-vs-plain field access, and merge-order determinism); and three —
// snapcomplete, fingerprintcover, wirexhaustive — are the state-contract
// suite (serialization completeness, config-fingerprint coverage, and wire
// protocol exhaustiveness). The rest are syntactic or type-based
// per-package checks.
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

// decisionPkgs are the packages whose code decides replacements: the
// paper's guarantees require their behavior to be a pure, deterministic
// function of stream state and seed.
var decisionPkgs = []string{
	"stochstream/internal/core",
	"stochstream/internal/policy",
	"stochstream/internal/cachepolicy",
	"stochstream/internal/engine",
	"stochstream/internal/mincostflow",
	// The fault-tolerance layer inherits the contract: a checkpoint must
	// restore identically and a fault plan must replay identically, so
	// neither may read clocks or ambient randomness.
	"stochstream/internal/checkpoint",
	"stochstream/internal/faultinject",
	// The flight recorder runs inside Step: span timestamps must come
	// through the engine's clock seam (flightrec.Options.Clock /
	// Recorder.Clock), never time.Now directly, or two replays of the same
	// seed stop being byte-identical.
	"stochstream/internal/flightrec",
	// The sharded runtime's routing, batching and merge order all decide
	// which tuples reach which cache and when; any clock or ambient-rand
	// read there breaks checkpoint replay of the whole runtime, not just
	// one shard.
	"stochstream/internal/shardrt",
	// The network daemon (and its wire/client subpackages, caught by the
	// prefix match) admits, orders and replays batches: any ambient clock
	// or randomness in sequencing, dedup or replay decisions would break
	// the drain/restart byte-identity guarantee. Wall-clock needs —
	// connection deadlines, reaping, latency metrics — go through the
	// daemon's one audited wall-clock read (Server.nowNanos); backoff jitter
	// through seeded stats.RNG.
	"stochstream/internal/streamd",
}

// emissionPkgs additionally carry result emission and metric export, whose
// output must be byte-identical across replays.
var emissionPkgs = append([]string{
	"stochstream/internal/join",
	"stochstream/internal/telemetry",
	// The managed HTTP server lifecycle: its serve goroutine is the
	// pattern goleak's managed-serve evidence exists for.
	"stochstream/internal/httpd",
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

// mergedetPkgs scope the merge-order determinism check to the sharded
// runtime, the one place that merges concurrent shard outputs into an
// emission order.
var mergedetPkgs = []string{
	"stochstream/internal/shardrt",
	// The daemon forwards the runtime's merged order to clients; anything
	// it persists or returns must preserve that order.
	"stochstream/internal/streamd",
}

// statePkgs scope serialization completeness to the packages that own
// snapshot/restore pairs: the engine and sharded runtime checkpoints, the
// policies' SnapshotState/RestoreState, the stats trackers and RNG, and the
// core sketches' binary codecs.
var statePkgs = []string{
	"stochstream/internal/core",
	"stochstream/internal/policy",
	"stochstream/internal/cachepolicy",
	"stochstream/internal/engine",
	"stochstream/internal/shardrt",
	"stochstream/internal/stats",
}

// fingerprintPkgs scope config-fingerprint coverage to the packages whose
// checkpoints carry a config fingerprint compared on restore.
var fingerprintPkgs = []string{
	"stochstream/internal/engine",
	"stochstream/internal/shardrt",
}

// wirePkgs scope protocol exhaustiveness to the daemon tree (the wire
// package itself, the daemon, and the client, via the prefix match).
var wirePkgs = []string{
	"stochstream/internal/streamd",
}

// Rules returns the stochlint suite with its package scoping.
func Rules() []Rule {
	return []Rule{
		{Dettaint, func(p string) bool { return inAny(p, decisionPkgs) }},
		{Maprange, func(p string) bool { return inAny(p, emissionPkgs) }},
		{Floateq, everywhere},
		{Stepretain, everywhere},
		{Stepescape, everywhere},
		{Locksafe, everywhere},
		{Scorepure, func(p string) bool { return inAny(p, scorepurePkgs) }},
		{Errdiscipline, func(p string) bool { return inAny(p, decisionPkgs) }},
		{Goleak, func(p string) bool { return inAny(p, emissionPkgs) }},
		{Chandiscipline, func(p string) bool { return inAny(p, decisionPkgs) }},
		{Atomicfield, func(p string) bool { return inAny(p, emissionPkgs) }},
		{Mergedet, func(p string) bool { return inAny(p, mergedetPkgs) }},
		{Snapcomplete, func(p string) bool { return inAny(p, statePkgs) }},
		{Fingerprintcover, func(p string) bool { return inAny(p, fingerprintPkgs) }},
		{Wirexhaustive, func(p string) bool { return inAny(p, wirePkgs) }},
	}
}

// Analyzers returns the fifteen analyzers without scoping, for tests and docs.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Dettaint, Maprange, Floateq, Stepretain, Stepescape, Locksafe, Scorepure, Errdiscipline,
		Goleak, Chandiscipline, Atomicfield, Mergedet,
		Snapcomplete, Fingerprintcover, Wirexhaustive,
	}
}
