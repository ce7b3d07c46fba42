package engine

import "errors"

// Error taxonomy of the fault-tolerance layer. Boundary failures come back
// as values wrapping one of these sentinels (test with errors.Is); internal
// invariant violations — a policy returning a malformed eviction set, an
// index out of sync — remain panics, because they are programming errors the
// operator cannot meaningfully continue past (CheckInvariants exists to
// surface them in tests and chaos harnesses instead).
var (
	// ErrBadTuple reports an arrival whose key lies outside the supported
	// domain; StepChecked rejects the step without mutating any state.
	ErrBadTuple = errors.New("engine: bad tuple")
	// ErrStepFailed reports that a step aborted mid-flight (a policy panic
	// caught by StepChecked). The operator's state may be inconsistent; the
	// caller should Restore from a checkpoint or rebuild the operator.
	ErrStepFailed = errors.New("engine: step failed")
	// ErrConfigMismatch reports a checkpoint that was taken under a different
	// operator configuration than the one restoring it.
	ErrConfigMismatch = errors.New("engine: checkpoint does not match operator configuration")
	// ErrInvariant is wrapped by every CheckInvariants failure.
	ErrInvariant = errors.New("engine: cache invariant violated")
)
