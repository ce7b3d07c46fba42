// Package locksafe is the seeded-violation corpus for the locksafe
// analyzer: telemetry handles constructed outside their constructors.
package locksafe

import "stochstream/internal/telemetry"

func literalCounter() *telemetry.Counter {
	return &telemetry.Counter{} // want "telemetry.Counter constructed by literal"
}

func literalRegistry() *telemetry.Registry {
	r := telemetry.Registry{} // want "telemetry.Registry constructed by literal"
	return &r
}

func literalHistogram() *telemetry.Histogram {
	return &telemetry.Histogram{} // want "telemetry.Histogram constructed by literal"
}

func literalRing() *telemetry.Ring {
	return &telemetry.Ring{} // want "telemetry.Ring constructed by literal"
}

func zeroValueHandle() {
	var c telemetry.Counter // want "zero-value telemetry.Counter declared"
	c.Inc()
}

func zeroValueGauge() *telemetry.Gauge {
	var g telemetry.Gauge // want "zero-value telemetry.Gauge declared"
	return &g
}

func constructorsAreFine() *telemetry.Counter {
	r := telemetry.NewRegistry()
	return r.Counter("steps_total")
}

// Pointers are how handles circulate: declaring one constructs nothing.
func pointerDeclIsFine(r *telemetry.Registry) *telemetry.Counter {
	var c *telemetry.Counter
	c = r.Counter("pairs_total")
	return c
}

func suppressed() {
	//lint:ignore locksafe a detached counter in a test fixture never exports, by design
	var c telemetry.Counter
	c.Inc()
}
