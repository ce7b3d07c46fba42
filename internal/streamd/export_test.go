package streamd

// Draining reports whether a drain has begun. The drain tests wait on it to
// land a drain at an exact batch.
func (s *Server) Draining() bool { return s.draining.Load() }
