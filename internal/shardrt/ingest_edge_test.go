package shardrt

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stochstream/internal/engine"
	"stochstream/internal/process"
)

// TestFlushEmptyRuntime: Flush on a runtime that never ingested anything is a
// no-op — no pairs, no error, no shard steps — and stays repeatable.
func TestFlushEmptyRuntime(t *testing.T) {
	rt, err := New(Config{Shards: 3, TotalCache: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 2; i++ {
		out, err := rt.Flush()
		if err != nil {
			t.Fatalf("flush %d on empty runtime: %v", i, err)
		}
		if len(out) != 0 {
			t.Fatalf("flush %d emitted %d pairs from an empty runtime", i, len(out))
		}
	}
	m := rt.Metrics()
	if m.Ingested != 0 {
		t.Fatalf("empty flush counted ingress: %+v", m)
	}
	for i, sm := range m.Shards {
		if sm.Engine.Steps != 0 {
			t.Fatalf("shard %d stepped %d times on empty flushes", i, sm.Engine.Steps)
		}
	}
}

// TestIngestEmptyBatch: a zero-length batch is accepted, emits nothing, and
// does not advance the ingress counter or step any shard.
func TestIngestEmptyBatch(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	out, err := rt.IngestBatch(nil)
	if err != nil {
		t.Fatalf("IngestBatch(nil): %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty batch emitted %d pairs", len(out))
	}
	if m := rt.Metrics(); m.Ingested != 0 {
		t.Fatalf("empty batch counted ingress: %+v", m)
	}
}

// TestFlushRepeatable: a Flush that drains a carried lane tail leaves nothing
// behind, so an immediate second Flush is an empty no-op.
func TestFlushRepeatable(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// One unpaired R on key 3 sits in the lane tail until Flush pads its S
	// side with NoValue.
	steps := []Step{{R: engine.Tuple{Key: 3}, S: engine.Tuple{Key: 4}}}
	if _, err := rt.IngestBatch(steps); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Flush(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	out, err := rt.Flush()
	if err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("second flush re-emitted %d pairs", len(out))
	}
}

// TestCloseEmptyRuntime: closing a runtime that never ingested drains nothing,
// and the closed runtime answers ErrClosed to every mutator — including a
// second Close, which must not panic on the already-stopped workers.
func TestCloseEmptyRuntime(t *testing.T) {
	rt, err := New(Config{Shards: 3, TotalCache: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.Close()
	if err != nil {
		t.Fatalf("close on empty runtime: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("close drained %d pairs from an empty runtime", len(out))
	}
	if _, err := rt.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if _, err := rt.IngestBatch(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("IngestBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := rt.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

// tracked is a payload whose collection the test can observe.
type tracked struct{ _ [64]byte }

// burstSteps builds n R-only arrivals on keys no later traffic uses, each
// carrying a finalizer-tracked payload. It lives in its own frame so that the
// caller holds no reference once the batch has been ingested.
//
//go:noinline
func burstSteps(n int, freed *atomic.Int64) []Step {
	steps := make([]Step, n)
	for i := range steps {
		p := new(tracked)
		runtime.SetFinalizer(p, func(*tracked) { freed.Add(1) })
		steps[i] = Step{R: engine.Tuple{Key: 1000 + i, Payload: p}, S: engine.Tuple{Key: process.NoValue}}
	}
	return steps
}

// TestConsumedPayloadsAreReleased: what a lane or a shard's batch buffer has
// handed on, it must stop referencing. A skewed burst parks 256 payloads in
// the R lanes; S-only traffic then pairs them away (through the batch buffers
// into the caches) and balanced traffic evicts them, in batches far shorter
// than the burst — so the positions the burst reached in the lanes and batch
// buffers are never written again. Every payload must be collectable, and the
// backing arrays zero beyond what is live. At the parent commit the lanes kept
// all 256 reachable for the life of the runtime.
func TestConsumedPayloadsAreReleased(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const burst = 256
	var freed atomic.Int64
	ingest := func(steps []Step) {
		t.Helper()
		if _, err := rt.IngestBatch(steps); err != nil {
			t.Fatal(err)
		}
	}
	ingest(burstSteps(burst, &freed))
	if m := rt.Metrics(); m.Shards[0].Engine.Steps+m.Shards[1].Engine.Steps != 0 {
		t.Fatalf("the burst was not parked in the lanes: %+v", m)
	}
	drain := make([]Step, burst)
	for i := range drain {
		drain[i] = Step{R: engine.Tuple{Key: process.NoValue}, S: engine.Tuple{Key: 5000 + i}}
	}
	ingest(drain)
	for b := 0; b < 200; b++ {
		ingest([]Step{
			{R: engine.Tuple{Key: b % 7}, S: engine.Tuple{Key: b % 5}},
			{R: engine.Tuple{Key: b % 3}, S: engine.Tuple{Key: b % 11}},
		})
	}

	for i := range rt.lanes {
		for side, lane := range rt.lanes[i] {
			for x, tu := range lane[len(lane):cap(lane)] {
				if tu != (engine.Tuple{}) {
					t.Fatalf("shard %d lane %d keeps %+v at position %d beyond its length %d", i, side, tu, len(lane)+x, len(lane))
				}
			}
		}
	}
	for _, sh := range rt.shards {
		for x, tp := range sh.batchBuf[:cap(sh.batchBuf)] {
			if tp != (engine.TuplePair{}) {
				t.Fatalf("shard %d batch buffer keeps %+v at position %d after its worker answered", sh.id, tp, x)
			}
		}
	}
	for cycle := 0; cycle < 10 && freed.Load() < burst; cycle++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := freed.Load(); got != burst {
		t.Fatalf("%d of %d burst payloads were collected; the rest are still reachable from the runtime", got, burst)
	}
}

// matchedSteps builds n steps whose R and S arrivals share a key, so both
// route to one shard and join there at once, each carrying a tracked payload;
// in its own frame for the reason burstSteps is.
//
//go:noinline
func matchedSteps(n int, freed *atomic.Int64) []Step {
	mk := func() *tracked {
		p := new(tracked)
		runtime.SetFinalizer(p, func(*tracked) { freed.Add(1) })
		return p
	}
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{R: engine.Tuple{Key: 1000 + i, Payload: mk()}, S: engine.Tuple{Key: 1000 + i, Payload: mk()}}
	}
	return steps
}

// TestShortReplyReleasesLongRepliesPayloads: the merged reply is written into
// buffers the runtime reuses — its tuple list, and the Pairs IngestBatch
// writes it out as — as each shard engine's numbered batch is, and is merged
// straight out of those batches through per-shard sort keys. A 160-pair reply
// carries 320 payloads, 80 pairs a shard — past the 32 keys a shard keeps room
// for; the two-pair replies after it evict those tuples from the caches and
// never write the buffers' later positions again. Every payload must be
// collectable, the reply's tuple list and the Pair buffer zero beyond their
// lengths and the gathered runs cleared; the key buffers and the merged
// pairs cannot pin anything, being pointer-free. At the PR 19 parent the
// output buffers were truncated, not cleared.
func TestShortReplyReleasesLongRepliesPayloads(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const long = 160
	var freed atomic.Int64
	out, err := rt.IngestBatch(matchedSteps(long, &freed))
	if err != nil || len(out) != long {
		t.Fatalf("long batch: %d pairs, %v; want %d", len(out), err, long)
	}
	out = nil
	for b := 0; b < 100; b++ {
		short, err := rt.IngestBatch([]Step{
			{R: engine.Tuple{Key: 2 * b}, S: engine.Tuple{Key: 2 * b}},
			{R: engine.Tuple{Key: 2*b + 1}, S: engine.Tuple{Key: 2*b + 1}},
		})
		if err != nil || len(short) != 2 {
			t.Fatalf("short batch %d: %d pairs, %v; want 2", b, len(short), err)
		}
	}
	for x, p := range rt.out[len(rt.out):cap(rt.out)] {
		if p != (Pair{}) {
			t.Fatalf("pair buffer keeps %+v at position %d beyond its length %d", p, len(rt.out)+x, len(rt.out))
		}
	}
	tuples := rt.reply.tuples
	for x, tu := range tuples[len(tuples):cap(tuples)] {
		if tu != (engine.Tuple{}) {
			t.Fatalf("the reply's tuple list keeps %+v at position %d beyond its length %d", tu, len(tuples)+x, len(tuples))
		}
	}
	for i, r := range rt.runs[:cap(rt.runs)] {
		if r.keys != nil || r.batch.Tuples != nil || r.batch.Pairs != nil {
			t.Fatalf("run %d still references its shard's output after the dispatch", i)
		}
	}
	for _, pointerFree := range []struct {
		v    any
		size uintptr
		why  string
	}{
		{runKey{}, 16, "the trigger and the pair's index, nothing a pass does not read"},
		{ref{}, 12, "two tuple numbers, the shard and the same-step flag"},
	} {
		typ := reflect.TypeOf(pointerFree.v)
		for i := 0; i < typ.NumField(); i++ {
			switch k := typ.Field(i).Type.Kind(); k {
			case reflect.Uint64, reflect.Int, reflect.Uint32, reflect.Uint16, reflect.Bool:
			default:
				t.Fatalf("%s.%s is a %v: the merge's records must stay pointer-free", typ.Name(), typ.Field(i).Name, k)
			}
		}
		if typ.Size() != pointerFree.size {
			t.Fatalf("%s is %d bytes, want %d: %s", typ.Name(), typ.Size(), pointerFree.size, pointerFree.why)
		}
	}
	for cycle := 0; cycle < 10 && freed.Load() < 2*long; cycle++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := freed.Load(); got != 2*long {
		t.Fatalf("%d of %d payloads of the long reply were collected; the rest are still reachable from the runtime", got, 2*long)
	}
}
