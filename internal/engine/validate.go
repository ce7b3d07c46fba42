package engine

import (
	"errors"
	"fmt"
	"math"

	"stochstream/internal/process"
)

// Key domain accepted by StepChecked. The simulator's value domains all fit
// in int32 (process.NoValue = MinInt32 marks a never-joining tuple); a key
// outside it would alias another in the index's int32 table. The band probe
// clips its interval [k−Band, k+Band] to the domain for the same reason.
// MinKey starts one above NoValue so the sentinel stays unambiguous.
const (
	MinKey = math.MinInt32 + 1
	MaxKey = math.MaxInt32
)

// Validate checks the configuration for every error NewJoin would surface
// and for model parameterizations that would otherwise panic deep inside a
// run (a GaussianWalk with σ ≤ 0 only blows up when the policy first
// forecasts with it). NewJoin calls it; callers that assemble configurations
// from external input can call it earlier for a cheaper rejection path.
func (cfg Config) Validate() error {
	if cfg.CacheSize < 1 {
		return errors.New("engine: cache size must be >= 1")
	}
	if cfg.Window < 0 {
		return fmt.Errorf("engine: window must be >= 0, got %d", cfg.Window)
	}
	// A band wider than the key domain joins no more keys than the domain's
	// width, and k+Band must not overflow.
	if cfg.Band < 0 || uint64(cfg.Band) > MaxKey-MinKey {
		return fmt.Errorf("engine: band must be in [0, %d], got %d", uint64(MaxKey-MinKey), cfg.Band)
	}
	for i, p := range cfg.Procs {
		if p == nil {
			continue
		}
		if v, ok := p.(process.Validator); ok {
			if err := v.Validate(); err != nil {
				return fmt.Errorf("engine: stream %d model: %w", i, err)
			}
		}
	}
	return nil
}
