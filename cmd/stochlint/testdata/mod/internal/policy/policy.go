// Package policy is the stochlint driver's golden-file corpus: it seeds one
// finding of each suppression shape (suppressed, unsuppressed, stale
// directive, unknown analyzer) so the -json output exercises every field.
package policy

// Close compares floats exactly under a reasoned suppression: the finding
// appears in -json with suppressed=true and does not gate the exit code.
func Close(a, b float64) bool {
	//lint:ignore floateq golden corpus: exact comparison intended
	return a == b
}

// Open compares floats exactly with no directive.
func Open(a, b float64) bool {
	return a != b
}

// Stale carries a directive with nothing to suppress.
func Stale() int {
	//lint:ignore floateq golden corpus: stale by construction
	return 1
}

// Typo names an analyzer that does not exist.
func Typo() int {
	//lint:ignore flaoteq golden corpus: misspelled analyzer
	return 2
}
