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
// Beside each window sits a memo of the scores summed over it (see
// window.coordinate), emptied whenever the window is.
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
	f     []dist.Dense
	rule  int
	inc   process.Incremental  // rule == reoffset
	trend *process.LinearTrend // rule == slide, when the model is a linear trend
	t0    int                  // rule == slide: f[i] is the forecast for time t0+1+i
	last  int                  // rule == reoffset: the observation f's offsets include

	// Support-bound monotonicity over f, which lets a score skip every Δt
	// whose support cannot contain the candidate's value (see span). head
	// counts the entries ever dropped from the front, so head+i numbers the
	// entries; brk[b] is the number of the latest entry that broke bound b's
	// order against its predecessor, and the order holds over f while that
	// entry's predecessor is no longer in the window (brk[b] <= head).
	head int
	brk  [4]int

	// Scores already summed over the whole window, by coordinate (see
	// coordinate), for the L table and band radius they were summed under.
	// Only non-zero scores are kept: those lie inside the window's support,
	// which bounds the memo by the support's width however long the run.
	memo    map[int]float64
	memoL   []float64
	memoEps int
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
	w.rule, w.inc, w.trend = refill, nil, nil
	if inc, ok := p.(process.Incremental); ok {
		w.rule, w.inc = reoffset, inc
	} else if p != nil && p.Independent() {
		w.rule = slide
		w.trend, _ = p.(*process.LinearTrend)
	}
}

func (w *window) clear() {
	w.f = w.f[:0]
	w.head = 0
	w.brk = [4]int{}
	clear(w.memo)
}

// coordinate returns the one number through which the sum over the whole
// window depends on the candidate value v, when there is one. Every entry of
// a re-offset window sits at a fixed distance from the last observation, and
// every entry of a window sliding over a linear trend at a fixed distance
// from Slope·t0, with the same probabilities at every decision; so the sum
// reads the same cells, in the same order, for every (v, decision) at the
// same distance from that origin. This is Theorem 5(2) for walks and
// Corollary 5 for trends, kept exact: a score is summed once per coordinate
// and is bit for bit what summing it again would give.
func (w *window) coordinate(v int) (c int, ok bool) {
	switch {
	case w.rule == reoffset:
		return v - w.last, true
	case w.trend != nil:
		return v - w.trend.Slope*w.t0, true
	}
	return 0, false
}

// recall returns the memoized sum against stream s at coordinate key under l
// and eps. A memo holding sums under another table (a retabulated L has new
// storage) or band is emptied first.
func (c *ForecastCache) recall(s StreamID, key int, l LTable, eps int) (h float64, ok bool) {
	w := &c.win[s]
	if w.memo == nil {
		w.memo = make(map[int]float64)
	}
	if len(w.memoL) != len(l.vals) || &w.memoL[0] != &l.vals[0] || w.memoEps != eps {
		clear(w.memo)
		w.memoL, w.memoEps = l.vals, eps
	}
	if h, ok = w.memo[key]; ok {
		w.hits++
	}
	return h, ok
}

// remember memoizes h under the table and band of the recall that missed.
func (c *ForecastCache) remember(s StreamID, key int, h float64) { c.win[s].memo[key] = h }

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
		last := w.inc.Last(h)
		if d := last - w.last; d != 0 {
			for i := range w.f {
				w.f[i].Off += d
			}
		}
		w.last = last
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
	if len(w.f) == cap(w.f) {
		// A sliding window uses up its slack once per slack's length of steps
		// and is then copied to a new array, so the slack is memory held for
		// good rather than room to grow into: an eighth, where append would
		// take a quarter and round a horizon of a thousand up to 64 KB.
		g := make([]dist.Dense, len(w.f), len(w.f)+len(w.f)/8+8)
		copy(g, w.f)
		w.f = g
	}
	w.f = append(w.f, d)
}

// ordered reports whether support bound b keeps its order over the window.
func (w *window) ordered(b int) bool { return w.brk[b] <= w.head }

// upTo returns stream s's window holding at least Δt = 1..n, forecasting
// whatever part of that range it does not hold yet.
func (c *ForecastCache) upTo(s StreamID, n int) *window {
	w := &c.win[s]
	for len(w.f) < n {
		dt := len(w.f) + 1
		if w.rule == reoffset {
			d := dist.DenseOf(w.inc.Increment(dt))
			d.Off += w.last
			w.push(d)
		} else {
			w.push(dist.DenseOf(c.procs[s].Forecast(c.hists[s], dt)))
		}
	}
	return w
}

// At returns the Δt-step forecast of stream s (dt >= 1). The result points
// into the window and is valid until the next Rebind.
func (c *ForecastCache) At(s StreamID, dt int) *dist.Dense {
	return &c.upTo(s, dt).f[dt-1]
}

// Len returns how many horizon steps of stream s are currently materialized.
func (c *ForecastCache) Len(s StreamID) int { return len(c.win[s].f) }

// Memo returns how many scores against stream s are memoized and how many
// scores have been answered from the memo since the cache was made.
func (c *ForecastCache) Memo(s StreamID) (entries, hits int) {
	return len(c.win[s].memo), c.win[s].hits
}

// span returns the index range [from, to) of f[:n] outside of which no
// support meets [a, b]. A bound that is monotone in Δt puts the entries that
// satisfy it in a prefix or a suffix, found by binary search; a bound that is
// not monotone restricts nothing.
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
