// Package snapcomplete is the serialization-completeness corpus: a
// snapshotter whose persistent/encoded/restored sets disagree in every way
// the analyzer distinguishes, with both the operational writes and the
// codec reads hidden behind helper chains (interprocedural-only).
package snapcomplete

type Counter struct {
	Count int // want "persistent field Count of Counter is written by snapcomplete.bump but never captured"
	Total int
	Extra int   // want "field Extra of Counter is captured by .* but never touched"
	Ghost int   // want "field Ghost of Counter is restored by .* but never captured"
	memo  []int //lint:ignore snapcomplete derived: Grow rebuilds memo from Total on demand
}

func NewCounter() *Counter { return &Counter{Total: 1} }

// The operational write of Count sits two helper hops below the exported
// method — invisible to any single-function analysis.
func (c *Counter) Touch(v int)     { applyDelta(c, v) }
func applyDelta(c *Counter, v int) { bump(c, v) }
func bump(c *Counter, v int)       { c.Count += v }

func (c *Counter) Add(v int) { c.Total += v }
func (c *Counter) Grow()     { c.memo = append(c.memo, c.Total) }

// The codec pair delegates both directions, so the encoded and restored
// sets are interprocedural too.
func (c *Counter) SnapshotState() ([]byte, error) { return encodeBody(c), nil }
func encodeBody(c *Counter) []byte                { return []byte{byte(c.Total), byte(c.Extra)} }

func (c *Counter) RestoreState(b []byte) error { decodeBody(c, b); return nil }
func decodeBody(c *Counter, b []byte) {
	c.Total = int(b[0])
	c.Ghost = int(b[1])
}
