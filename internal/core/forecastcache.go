package core

import (
	"reflect"

	"stochstream/internal/dist"
	"stochstream/internal/process"
)

// ForecastCache holds the conditional forecasts Pr{X^s_{t0+Δt} = · | x̄_{t0}}
// of both streams as one dense window per stream: entry Δt−1 is the Δt-step
// forecast as a dist.Dense. Every HEEB score and every FlowExpect arc of a
// decision reads the same window, and the window survives from one decision
// to the next: Rebind advances it to the new histories instead of rebuilding
// it, by whichever of three rules the stream's model allows.
//
//   - Slide (Independent models): a forecast depends only on the absolute
//     time it is for, so the entries for times that have passed are dropped
//     from the head and the tail is forecast on demand — one Forecast call
//     per stream per elapsed step.
//   - Re-offset (process.Incremental models): every forecast is a fixed
//     increment distribution moved to the last observation, so the entries
//     keep their probabilities and only their offsets move.
//   - Refill (everything else): the window is emptied and forecast again.
//
// Each rule leaves exactly the Dense view of what Forecast would return now,
// so scores read from the window are bit for bit those of the uncached path.
// A history that moved backwards, a different model, or Invalidate empties
// the window. It is derived state: nothing of it is checkpointed.
//
// Beside each window sits a table of the scores summed over it (see
// window.origin), emptied whenever the window is.
//
// A ForecastCache is not safe for concurrent use.
type ForecastCache struct {
	procs [2]process.Process
	hists [2]*process.History
	win   [2]window
}

// advance rules, chosen from the model when it is bound.
const (
	refill = iota
	slide
	reoffset
)

// window is one stream's forecasts for Δt = 1..len(f).
type window struct {
	// f is the live stretch of buf. Entries dropped from its head leave room
	// at the front of buf, which push moves f back into when the tail runs out.
	f, buf []dist.Dense
	rule   int
	inc    process.Incremental  // rule == reoffset
	trend  *process.LinearTrend // rule == slide, when the model is a linear trend
	noise  dist.Dense           // trend != nil: the view of trend.Noise every entry is a translate of
	t0     int                  // rule == slide: f[i] is the forecast for time t0+1+i
	// org is the value f's offsets are counted from: the last observation
	// under reoffset (the entries are the bare increments, and a new
	// observation moves org instead of every entry), zero otherwise.
	org int

	// Support-bound monotonicity over f, which lets a score skip every Δt
	// whose support cannot contain the candidate's value (see span). head
	// counts the entries ever dropped from the front, so head+i numbers the
	// entries; brk[b] is the number of the latest entry that broke bound b's
	// order against its predecessor, and the order holds over f while that
	// entry's predecessor is no longer in the window (brk[b] <= head).
	head int
	brk  [4]int

	// Scores already summed over the whole window under L table tabL and band
	// radius tabEps: tab[k−tabLo] is the sum at coordinate k (see origin), and
	// 0 where none is kept. Only non-zero scores are kept, which makes 0 free
	// to mean so; those lie inside the window's support seen from the origin,
	// which no decision moves, and that bounds the table by the support's
	// width however long the run.
	tab     []float64
	tabLo   int
	tabL    []float64
	tabEps  int
	entries int
	hits    int
}

// Indices into window.brk: which support bound, in which order.
const (
	loNonDecreasing = iota
	loNonIncreasing
	hiNonDecreasing
	hiNonIncreasing
)

// NewForecastCache returns a cache over the given models and histories. Nil
// processes are allowed as long as At is never called for their stream.
func NewForecastCache(procs [2]process.Process, hists [2]*process.History) *ForecastCache {
	c := &ForecastCache{}
	c.Rebind(procs, hists)
	return c
}

// Rebind points the cache at the state of a new decision and advances both
// windows to it. Call it at the start of each decision: the histories grow
// between decisions, so the window is stale until advanced even when the
// pointers are unchanged.
func (c *ForecastCache) Rebind(procs [2]process.Process, hists [2]*process.History) {
	for s := range c.win {
		w := &c.win[s]
		if !sameModel(c.procs[s], procs[s]) {
			w.bind(procs[s])
		}
		if hists[s] != nil {
			w.advance(hists[s])
		} else {
			w.clear()
		}
	}
	c.procs = procs
	c.hists = hists
}

// Invalidate empties both windows, for callers that replaced the state behind
// the cache in a way Rebind cannot see.
func (c *ForecastCache) Invalidate() {
	for s := range c.win {
		c.win[s].clear()
	}
}

// sameModel reports whether a and b are the same model value. Models of a
// type that cannot be compared count as different, which costs a refill.
func sameModel(a, b process.Process) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}

func (w *window) bind(p process.Process) {
	w.clear()
	w.rule, w.inc, w.trend, w.org = refill, nil, nil, 0
	if inc, ok := p.(process.Incremental); ok {
		w.rule, w.inc = reoffset, inc
	} else if p != nil && p.Independent() {
		w.rule = slide
		if w.trend, _ = p.(*process.LinearTrend); w.trend != nil {
			w.noise = dist.DenseOf(w.trend.Noise)
		}
	}
}

func (w *window) clear() {
	w.f = w.buf[:0]
	w.head = 0
	w.brk = [4]int{}
	w.emptyTab()
}

func (w *window) emptyTab() {
	clear(w.tab)
	w.entries = 0
}

// origin returns the value that candidate values are counted from to get the
// one number — the coordinate v − origin — through which the sum over the
// whole window depends on v, when there is one. Every entry of a re-offset
// window sits at a fixed distance from the last observation, and every entry
// of a window sliding over a linear trend at a fixed distance from Slope·t0,
// with the same probabilities at every decision; so the sum reads the same
// cells, in the same order, for every (v, decision) at the same distance from
// that origin. This is Theorem 5(2) for walks and Corollary 5 for trends,
// kept exact: a score is summed once per coordinate and is bit for bit what
// summing it again would give.
func (w *window) origin() (o int, ok bool) {
	switch {
	case w.rule == reoffset:
		return w.org, true
	case w.trend != nil:
		return w.trend.Slope * w.t0, true
	}
	return 0, false
}

// Bound is one stream's window made ready for the scores of one decision by
// Bind; Score reads it. It is valid until the cache is next rebound or
// invalidated, or bound for the same stream.
type Bound struct {
	w    *window
	l    LTable
	eps  int
	tab  []float64 // w.tab, when the window has a coordinate
	base int       // tab[v−base] is the sum kept for candidate value v
}

// Bind does, once, what every score against stream s over the whole of l
// under band radius eps needs: the window forecast through len(l), the
// coordinate origin folded into the table's base, and a table holding sums
// under another L table (a retabulated L has new storage) or band emptied.
func (c *ForecastCache) Bind(s StreamID, eps int, l LTable) Bound {
	w := c.upTo(s, len(l.vals))
	b := Bound{w: w, l: l, eps: eps}
	if o, ok := w.origin(); ok {
		if w.tabEps != eps || len(w.tabL) != len(l.vals) || len(l.vals) > 0 && &w.tabL[0] != &l.vals[0] {
			w.emptyTab()
			w.tabL, w.tabEps = l.vals, eps
		}
		b.tab, b.base = w.tab, w.tabLo+o
	}
	return b
}

// Score is BandJoinHCached for candidate value v over all of b's L table: one
// table read when the sum at v's coordinate is kept, else the sum itself,
// kept from then on if the window has a coordinate and the sum is not zero.
// It is the cache's method, not b's, because it writes the cache's tables.
func (c *ForecastCache) Score(b *Bound, v int) float64 {
	if i := v - b.base; uint(i) < uint(len(b.tab)) {
		if h := b.tab[i]; h != 0 {
			b.w.hits++
			return h
		}
	}
	return b.miss(v)
}

func (b *Bound) miss(v int) float64 {
	w := b.w
	h := w.sum(len(b.l.vals), v, b.eps, b.l)
	if o, ok := w.origin(); ok && h != 0 {
		w.keep(v-o, h)
		b.tab, b.base = w.tab, w.tabLo+o
	}
	return h
}

// keep stores the sum h at coordinate k, growing the table to the
// coordinates asked for and a margin: it has grown for the last time once
// the candidates have been everywhere in the window's support.
func (w *window) keep(k int, h float64) {
	const margin = 32
	if uint(k-w.tabLo) >= uint(len(w.tab)) {
		if len(w.tab) == 0 {
			w.tabLo = k
		}
		lo, hi := min(k-margin, w.tabLo), max(k+1+margin, w.tabLo+len(w.tab))
		g := make([]float64, hi-lo)
		copy(g[w.tabLo-lo:], w.tab)
		w.tab, w.tabLo = g, lo
	}
	if w.tab[k-w.tabLo] == 0 {
		w.entries++
	}
	w.tab[k-w.tabLo] = h
}

// advance moves the window from the history it was last advanced to, to h.
func (w *window) advance(h *process.History) {
	switch w.rule {
	case slide:
		t0 := h.T0()
		if k := t0 - w.t0; k < 0 || k > len(w.f) {
			w.clear()
		} else {
			w.f = w.f[k:]
			w.head += k
		}
		w.t0 = t0
	case reoffset:
		w.org = w.inc.Last(h)
	default:
		w.clear()
	}
}

// push appends the forecast for Δt = len(f)+1 and records whether its
// support bounds keep the order of the entries before it.
func (w *window) push(d dist.Dense) {
	if n := len(w.f); n > 0 {
		prev := w.f[n-1]
		at := w.head + n
		lo, hi := d.Off-prev.Off, d.Off+len(d.P)-prev.Off-len(prev.P)
		if lo < 0 {
			w.brk[loNonDecreasing] = at
		} else if lo > 0 {
			w.brk[loNonIncreasing] = at
		}
		if hi < 0 {
			w.brk[hiNonDecreasing] = at
		} else if hi > 0 {
			w.brk[hiNonIncreasing] = at
		}
	}
	w.f = append(w.f, d)
}

// ordered reports whether support bound b keeps its order over the window.
func (w *window) ordered(b int) bool { return w.brk[b] <= w.head }

// upTo returns stream s's window holding at least Δt = 1..n, forecasting
// whatever part of that range it does not hold yet.
func (c *ForecastCache) upTo(s StreamID, n int) *window {
	w := &c.win[s]
	if cap(w.f) < n {
		// The window is sized for the horizon asked for in one allocation. A
		// sliding window uses up its slack once per slack's length of steps
		// and is then moved back to the front of its array; the array grows
		// only when the horizon does. The slack is memory held for good rather
		// than room to grow into: an eighth, where append would take a quarter
		// and round a horizon of a thousand up to 64 KB.
		if cap(w.buf) < n {
			w.buf = make([]dist.Dense, n+n/8+8)
		}
		w.f = w.buf[:copy(w.buf, w.f)]
	}
	for len(w.f) < n {
		dt := len(w.f) + 1
		switch {
		case w.rule == reoffset:
			w.push(dist.DenseOf(w.inc.Increment(dt)))
		case w.trend != nil:
			d := w.noise
			d.Off += w.trend.TrendAt(w.t0 + dt)
			w.push(d)
		default:
			w.push(dist.DenseOf(c.procs[s].Forecast(c.hists[s], dt)))
		}
	}
	return w
}

// At returns the Δt-step forecast of stream s (dt >= 1). The result shares
// the window's probabilities and is valid until the next Rebind.
func (c *ForecastCache) At(s StreamID, dt int) dist.Dense {
	w := c.upTo(s, dt)
	d := w.f[dt-1]
	d.Off += w.org
	return d
}

// Len returns how many horizon steps of stream s are currently materialized.
func (c *ForecastCache) Len(s StreamID) int { return len(c.win[s].f) }

// Memo returns how many scores against stream s are kept, in a table of how
// many slots, and how many scores have been answered from the table since the
// cache was made.
func (c *ForecastCache) Memo(s StreamID) (entries, slots, hits int) {
	w := &c.win[s]
	return w.entries, len(w.tab), w.hits
}

// span returns the index range [from, to) of f[:n] outside of which no
// support meets [a, b], both counted from org. A bound that is monotone in Δt
// puts the entries that satisfy it in a prefix or a suffix, found by binary
// search; a bound that is not monotone restricts nothing.
func (w *window) span(n, a, b int) (from, to int) {
	f := w.f[:n]
	from, to = 0, n
	// Lower bounds: entry i can reach [a, b] only if lo_i <= b.
	if w.ordered(loNonDecreasing) {
		to = min(to, firstAbove(f, false, 1, b))
	} else if w.ordered(loNonIncreasing) {
		from = max(from, firstAbove(f, false, -1, -b-1))
	}
	// Upper bounds: entry i can reach [a, b] only if hi_i >= a.
	if w.ordered(hiNonDecreasing) {
		from = max(from, firstAbove(f, true, 1, a-1))
	} else if w.ordered(hiNonIncreasing) {
		to = min(to, firstAbove(f, true, -1, -a))
	}
	return from, to
}

// firstAbove returns the first index whose support bound (upper when hi is
// set, else lower) times sign exceeds x, given that bound·sign is
// non-decreasing over f; len(f) when none does.
func firstAbove(f []dist.Dense, hi bool, sign, x int) int {
	i, j := 0, len(f)
	for i < j {
		m := int(uint(i+j) >> 1)
		b := f[m].Off
		if hi {
			b += len(f[m].P) - 1
		}
		if sign*b > x {
			j = m
		} else {
			i = m + 1
		}
	}
	return i
}
