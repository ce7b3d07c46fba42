package policy

// Internals the run-driven tests of package policy_test (run_test.go) read:
// that package imports internal/engine, which imports this one.

// Alpha returns the α HEEB currently scores under.
func (p *HEEB) Alpha() float64 { return p.alpha }

// Tracked returns how many lifetimes HEEB's adaptive tracker has observed.
func (p *HEEB) Tracked() int { return p.tracker.N() }

// TrendConfig is trendConfig, the two-trend configuration of the tests.
var TrendConfig = trendConfig
