package dist

// Sampled reports whether t has built its sampling sums.
func Sampled(t *Table) bool { return t.cdf.Load() != nil }
