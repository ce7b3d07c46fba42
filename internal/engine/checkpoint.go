package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"stochstream/internal/checkpoint"
	"stochstream/internal/dist"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/process"
)

// The checkpoint payload is a gob-encoded checkpointWire inside the
// internal/checkpoint envelope (magic + version + CRC32). Everything the
// operator needs to replay exactly as an uninterrupted run is captured:
// the configuration fingerprint (so a restore into a differently configured
// operator is rejected), the clock and ID counter, the metrics, the cache in
// slot order (the layout is state: a positional policy's next draw depends on
// it) with payloads and caller tags, and the policy's private decision state
// when the policy implements join.StateSnapshotter: nothing that grows with the
// steps taken, and the same bytes for the same state.
// The indexes and the arrival list are not serialized — they are a pure
// function of the cache and are rebuilt on restore. Neither are the two
// histories: every model conditions on (t0, x_t0) alone, and the next step
// writes both before any decision reads them.
//
// The previous format also carries each history's count and last value
// (HistLen, HistLast): gob skips the fields, so such a file restores as it is.
// Every older file signs its processes by type alone, with no "#" and forecast
// digest, and the fingerprint check refuses it.
//
// Payloads are stored as interface values, so gob requires their concrete
// types to be registered; the common scalar types are registered here and
// callers with richer payloads register them with encoding/gob themselves.
type checkpointWire struct {
	CacheSize, Window, Band int
	Seed                    uint64
	PolicyName              string
	ProcSig                 string

	Time    int
	NextID  int
	Metrics Metrics
	Cache   []cacheEntryWire

	HasPolicyState bool
	PolicyState    []byte
}

type cacheEntryWire struct {
	Tuple   join.Tuple
	Payload interface{}
	// Seq is the entry's caller tag (Tuple.Seq).
	Seq uint64
}

func init() {
	// Interface-typed payloads need registered concrete types; cover the
	// scalars so the common cases work out of the box. Identical
	// re-registration elsewhere is a no-op.
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register(float64(0))
	gob.Register(string(""))
	gob.Register(bool(false))
	gob.Register([]byte(nil))
}

// fingerprint returns the configuration identity a checkpoint is bound to.
// The process pair is part of it: two operators with different arrival
// processes share no replayable state even when the cache geometry, seed
// and policy all match, so a checkpoint must not cross that boundary.
func (j *Join) fingerprint() (int, int, int, uint64, string, string) {
	return j.cfg.CacheSize, j.cfg.Window, j.cfg.Band, j.cfg.Seed, j.policy.Name(), procSig(j.cfg.Procs)
}

// sigHorizon is how many forecast steps procSig digests per model.
const sigHorizon = 4

// procSig names the stream models by their Go types, then "#" and a digest of
// what each forecasts for Δ = 1…sigHorizon from an empty history: every
// offset and probability bit of the forecasts, which HEEB's scores sum over
// (§4.3). Every model conditions an empty history on its initial value, so
// the digest covers each parameter that moves a forecast — a trend's slope,
// a walk's drift, a GeneralTrend's F.
func procSig(procs [2]process.Process) string {
	h := fnv.New64a()
	var b []byte
	for _, p := range procs {
		if p == nil {
			continue
		}
		for delta := 1; delta <= sigHorizon; delta++ {
			d := dist.DenseOf(p.Forecast(&process.History{}, delta))
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(d.Off))
			b = binary.LittleEndian.AppendUint64(b, uint64(len(d.P)))
			for _, x := range d.P {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
			h.Write(b)
		}
	}
	return fmt.Sprintf("%T/%T#%016x", procs[0], procs[1], h.Sum64())
}

// Checkpoint serializes the operator's full state to w. The operator is
// unchanged and can keep stepping; a later Restore into an operator built
// with the same Config resumes as if the run had never stopped.
//
// Policies that hold private decision state (RNG streams, adaptive
// trackers, value counts — see join.StateSnapshotter) are captured too. A
// policy with unsnapshottable private state will replay differently after
// restore — implement StateSnapshotter for it.
func (j *Join) Checkpoint(w io.Writer) error {
	if j.rec == nil {
		return j.writeCheckpoint(w)
	}
	sp := j.rec.Begin(flightrec.PhaseCheckpoint)
	err := j.writeCheckpoint(w)
	j.rec.End(sp, len(j.cache), 0)
	return err
}

func (j *Join) writeCheckpoint(w io.Writer) error {
	size, window, band, seed, polName, procSig := j.fingerprint()
	wire := checkpointWire{
		CacheSize:  size,
		Window:     window,
		Band:       band,
		Seed:       seed,
		PolicyName: polName,
		ProcSig:    procSig,
		Time:       j.time,
		NextID:     j.nextID,
		Metrics:    j.m,
		Cache:      make([]cacheEntryWire, len(j.cache)),
	}
	for i, tp := range j.cache {
		wire.Cache[i] = cacheEntryWire{Tuple: tp, Payload: j.slots[i].payload, Seq: j.slots[i].seq}
	}
	if s, ok := j.policy.(join.StateSnapshotter); ok {
		ps, err := s.SnapshotState()
		if err != nil {
			return fmt.Errorf("engine: snapshotting policy %s: %w", polName, err)
		}
		wire.HasPolicyState = true
		wire.PolicyState = ps
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("engine: encoding checkpoint: %w", err)
	}
	return checkpoint.Write(w, buf.Bytes())
}

// Restore replaces the operator's state with a checkpoint taken from an
// operator built with the same Config. Envelope failures (bad magic,
// unsupported version, checksum mismatch — see internal/checkpoint), decode
// failures and configuration mismatches are all detected before any state is
// touched: on such errors the operator continues exactly as it was. Only a
// failing policy-state restore (possible with a custom StateSnapshotter) can
// leave the policy partially restored; the engine's own state is still
// committed atomically after it.
func (j *Join) Restore(r io.Reader) error {
	payload, err := checkpoint.Read(r)
	if err != nil {
		return err
	}
	var wire checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return fmt.Errorf("engine: decoding checkpoint payload: %w", err)
	}
	size, window, band, seed, polName, procSig := j.fingerprint()
	if wire.CacheSize != size || wire.Window != window || wire.Band != band {
		return fmt.Errorf("%w: checkpoint (cache=%d, window=%d, band=%d), operator (cache=%d, window=%d, band=%d)",
			ErrConfigMismatch, wire.CacheSize, wire.Window, wire.Band, size, window, band)
	}
	if wire.Seed != seed {
		return fmt.Errorf("%w: checkpoint seed %d, operator seed %d", ErrConfigMismatch, wire.Seed, seed)
	}
	if wire.PolicyName != polName {
		return fmt.Errorf("%w: checkpoint policy %q, operator policy %q", ErrConfigMismatch, wire.PolicyName, polName)
	}
	if wire.ProcSig != procSig {
		return fmt.Errorf("%w: checkpoint processes %q, operator processes %q", ErrConfigMismatch, wire.ProcSig, procSig)
	}
	byID, err := validateWire(&wire)
	if err != nil {
		return err
	}
	// A policy with decision state takes it from the checkpoint, never keeps
	// its own: a file without that state is refused like one that carries
	// state for a policy without any.
	s, ok := j.policy.(join.StateSnapshotter)
	if ok != wire.HasPolicyState {
		return fmt.Errorf("%w: checkpoint carries policy state: %t, policy %q keeps state: %t",
			ErrConfigMismatch, wire.HasPolicyState, wire.PolicyName, ok)
	}
	// Everything fallible that can run without mutating is done; restore the
	// policy first (the one mutation that can still fail), then commit.
	if ok {
		if err := s.RestoreState(wire.PolicyState); err != nil {
			return fmt.Errorf("engine: restoring policy %s: %w", wire.PolicyName, err)
		}
	}
	j.time = wire.Time
	j.nextID = wire.NextID
	j.m = wire.Metrics
	j.state.Time = wire.Time - 1
	j.cache = j.cache[:0]
	clear(j.slots)
	j.slots = j.slots[:0]
	j.next, j.prev, j.ends = j.next[:0], j.prev[:0], ends{head: -1, tail: -1}
	j.nextSame, j.prevSame = j.nextSame[:0], j.prevSame[:0]
	j.equi[0].clear()
	j.equi[1].clear()
	// Every entry goes back to its slot, unstamped; the entries then enter the
	// arrival list and the index oldest first, as they did when they arrived.
	for _, e := range wire.Cache {
		j.grow(e.Tuple, slot{payload: e.Payload, seq: e.Seq})
	}
	for _, slot := range byID {
		j.enter(slot)
	}
	return nil
}

// validateWire sanity-checks decoded checkpoint state before it is
// committed, so a payload that passed the checksum but carries impossible
// state (a hand-edited file with a recomputed CRC) still cannot corrupt the
// operator. It returns the cache's slots in ascending ID order — arrival
// order, in which no two entries share an ID and arrival times never fall.
func validateWire(wire *checkpointWire) ([]int, error) {
	bad := func(format string, args ...interface{}) ([]int, error) {
		return nil, fmt.Errorf("engine: invalid checkpoint state: "+format, args...)
	}
	if wire.Time < 0 || wire.NextID < 0 {
		return bad("time %d, next ID %d", wire.Time, wire.NextID)
	}
	if len(wire.Cache) > wire.CacheSize {
		return bad("%d cached entries for budget %d", len(wire.Cache), wire.CacheSize)
	}
	byID := make([]int, len(wire.Cache))
	for i, e := range wire.Cache {
		byID[i] = i
		if e.Tuple.ID < 0 || e.Tuple.ID >= wire.NextID {
			return bad("entry %d has ID %d outside [0, %d)", i, e.Tuple.ID, wire.NextID)
		}
		if e.Tuple.Arrived < 0 || e.Tuple.Arrived >= wire.Time {
			return bad("entry %d arrived at %d, checkpoint time is %d", i, e.Tuple.Arrived, wire.Time)
		}
		// The last step expired every entry older than the window.
		if w := wire.Window; w > 0 && wire.Time-1-e.Tuple.Arrived > w {
			return bad("entry %d arrived at %d, expired at time %d under window %d", i, e.Tuple.Arrived, wire.Time-1, w)
		}
		if int(e.Tuple.Stream) != 0 && int(e.Tuple.Stream) != 1 {
			return bad("entry %d has stream %d", i, e.Tuple.Stream)
		}
		// A key outside the domain would alias another in the int32 table.
		if err := checkKey(e.Tuple.Value); err != nil {
			return bad("entry %d: %v", i, err)
		}
	}
	slices.SortFunc(byID, func(a, b int) int { return wire.Cache[a].Tuple.ID - wire.Cache[b].Tuple.ID })
	for k := 1; k < len(byID); k++ {
		older, e := wire.Cache[byID[k-1]].Tuple, wire.Cache[byID[k]].Tuple
		if e.ID == older.ID {
			return bad("entries %d and %d share ID %d", byID[k-1], byID[k], e.ID)
		}
		if e.Arrived < older.Arrived {
			return bad("entry %d (ID %d) arrived at %d, before entry %d (ID %d) at %d",
				byID[k], e.ID, e.Arrived, byID[k-1], older.ID, older.Arrived)
		}
	}
	return byID, nil
}
