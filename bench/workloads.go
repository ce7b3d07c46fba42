package main

import (
	"fmt"
	"math"
	"math/bits"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd/wire"
	"stochstream/internal/workload"
)

// spec is one workload: the stream models (or a stationary key domain), the
// serving configuration, and the fixed step marks every run measures at.
// Policy is never set: the runtime default decides (HEEB with models, RAND
// without), so a better default shows up without editing the benchmark.
type spec struct {
	name string
	why  string
	// models builds the two stream processes; nil selects stationary keys
	// drawn uniformly from [0, keys), which the runtime serves with RAND.
	models func() [2]process.Process
	keys   int
	// episode, when non-zero, restarts both model streams from their initial
	// state every episode steps (each episode is its own Process.Generate
	// draw). A free random walk is not ergodic: how far the two streams have
	// drifted apart decides the yield, so one path per seed makes every
	// yield and rate depend on the seed and on how far the run got. Restarts
	// make the stream a sequence of independent episodes and the workload
	// stationary; the model handed to the runtime is unchanged and is wrong
	// for one step per episode.
	episode int
	payload int // bytes per side, echoed back in every pair
	shards  int
	cache   int // TotalCache summed over shards
	batch   int // steps per client.Ingest call; 1 step = one R + one S tuple
	// q is the prefix length: yield and state size are read at this step
	// mark so they do not depend on speed. traced and unsharded are the
	// leading parts of the prefix the per-layer replays cover (the unsharded
	// engine scores every slot of the whole budget per eviction, so it gets
	// the shorter stretch).
	q, traced, unsharded int
	// warm and verify are derived by sized: steps fed before the prefix and
	// steps after the restart whose output is compared with the direct
	// replay.
	warm, verify int
}

var specs = []spec{
	{
		name: "trend",
		why:  "scaled ROOF trend, 1 shard, 64 slots: live window exceeds the cache and ~97% of time is HEEB scoring",
		models: func() [2]process.Process {
			return workload.TrendSpec{Lag: 1, RBound: 40, SBound: 60, RSigma: 13.2, SSigma: 20}.Join().Procs
		},
		shards: 1, cache: 64, batch: 8, q: 8192, traced: 2048, unsharded: 2048,
	},
	{
		name:    "walk",
		why:     "paper's WALK restarted every 128 steps, 4 shards, 32 slots: Markov forecasts widen with the horizon and sharding runs under a model-driven policy",
		models:  func() [2]process.Process { return workload.Walk().Procs },
		episode: 128,
		shards:  4, cache: 32, batch: 4, q: 2048, traced: 512, unsharded: 128,
	},
	{
		name: "fanout",
		why:  "RAND, 64 keys, 64-byte payloads, ~16 pairs/step: wire codecs, shard merge and the reply path do the work, scoring is bypassed",
		keys: 64, payload: 64,
		shards: 4, cache: 1024, batch: 256, q: 65536, traced: 16384, unsharded: 16384,
	},
	{
		name:   "uptime",
		why:    "RAND, 4096 keys, no payload, 2M-step prefix: cheapest step run long, so fixed per-step overhead and state growth show",
		keys:   4096,
		shards: 4, cache: 1024, batch: 256, q: 2000000, traced: 131072, unsharded: 131072,
	},
}

// scale sizes a run. full is what BENCHMARK.json measures; tiny is the
// smoke-test preset that walks every phase in about a second per workload.
type scale struct {
	name    string
	div     int // divides q, traced and unsharded
	warmMul int // warm-up is warmMul × cache steps
	setups  int // set-ups back to back at the start of a run (four more follow, one after each later phase)
	cycles  int // drain→restart cycles at the prefix mark in a traced run
	kernel  int // repetitions of the core/process kernel timings
}

var scales = map[string]scale{
	"full": {name: "full", div: 1, warmMul: 4, setups: 3, cycles: 5, kernel: 20},
	"tiny": {name: "tiny", div: 64, warmMul: 1, setups: 2, cycles: 2, kernel: 2},
}

// sized returns sp with its step marks scaled and rounded to whole batches.
func (sp spec) sized(sc scale) spec {
	round := func(n int) int {
		n = n / sc.div / sp.batch * sp.batch
		if n < sp.batch {
			n = sp.batch
		}
		return n
	}
	sp.q, sp.traced, sp.unsharded = round(sp.q), round(sp.traced), round(sp.unsharded)
	if sp.traced > sp.q {
		sp.traced = sp.q
	}
	if sp.unsharded > sp.traced {
		sp.unsharded = sp.traced
	}
	sp.warm = sc.warmMul * sp.cache
	sp.verify = sp.q / 8 / sp.batch * sp.batch
	if sp.verify < sp.batch {
		sp.verify = sp.batch
	}
	return sp
}

func (sp *spec) procs() [2]process.Process {
	if sp.models == nil {
		return [2]process.Process{}
	}
	return sp.models()
}

// steadyCap bounds how many steps of model input are generated beyond the
// verify window: a closed loop that outruns it ends early (rates stay
// valid), which keeps set-up time and live heap independent of how fast the
// system under test is.
const steadyCap = 32

// payloadTable is the number of distinct payloads per side; step i carries
// entry i mod payloadTable, so the oracle checks the echo without storing it.
const payloadTable = 256

// inputs is everything the program under test receives, a pure function of
// (workload, seed). Stationary keys come from a counter-based generator so
// the oracle can recompute the key of any sequence number without storing
// the stream; model workloads sample Process.Generate once.
type inputs struct {
	sp   *spec
	base uint64
	r, s []int
	pay  [2][][]byte
}

func newInputs(sp *spec, seed uint64) *inputs {
	in := &inputs{sp: sp, base: mix64(seed)}
	if sp.models != nil {
		n := sp.warm + sp.q + sp.verify + steadyCap*sp.q
		rng := stats.NewRNG(seed)
		pr := sp.models()
		ep := sp.episode
		if ep == 0 {
			ep = n
		}
		for len(in.r) < n {
			in.r = append(in.r, pr[0].Generate(rng.Split(), ep)...)
			in.s = append(in.s, pr[1].Generate(rng.Split(), ep)...)
		}
		in.r, in.s = in.r[:n], in.s[:n]
	}
	if sp.payload > 0 {
		for side := range in.pay {
			in.pay[side] = make([][]byte, payloadTable)
			for i := range in.pay[side] {
				b := make([]byte, sp.payload)
				for k := range b {
					b[k] = byte(mix64(in.base + uint64(side<<16|i<<8|k&0xff)))
				}
				in.pay[side][i] = b
			}
		}
	}
	return in
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// uniformKey is draw number ctr of a splitmix64 stream, mapped to [0, n) by
// multiply-high (no modulo bias worth the name at n <= 4096).
func uniformKey(base, ctr uint64, n int) int {
	hi, _ := bits.Mul64(mix64(base+ctr*0x9E3779B97F4A7C15), uint64(n))
	return int(hi)
}

// limit is the number of steps the inputs can supply.
func (in *inputs) limit() int {
	if in.r != nil {
		return len(in.r)
	}
	return math.MaxInt
}

// key returns the join key of stream side (0 = R, 1 = S) at global step i.
func (in *inputs) key(side, i int) int {
	if in.r != nil {
		if side == 0 {
			return in.r[i]
		}
		return in.s[i]
	}
	return uniformKey(in.base, uint64(2*i+side), in.sp.keys)
}

func (in *inputs) payloadOf(side, i int) []byte {
	if in.pay[side] == nil {
		return nil
	}
	return in.pay[side][i%payloadTable]
}

// fillWire writes steps [start, start+len(dst)) in the client's form.
func (in *inputs) fillWire(dst []wire.Step, start int) {
	for k := range dst {
		i := start + k
		dst[k] = wire.Step{
			RKey: int64(in.key(0, i)), SKey: int64(in.key(1, i)),
			RPayload: in.payloadOf(0, i), SPayload: in.payloadOf(1, i),
		}
	}
}

// fillDirect writes the same steps in the runtime's form, with payloads as
// the daemon hands them over (nil interface when absent).
func (in *inputs) fillDirect(dst []shardrt.Step, start int) {
	for k := range dst {
		i := start + k
		dst[k] = shardrt.Step{
			R: engine.Tuple{Key: in.key(0, i), Payload: ifaceBytes(in.payloadOf(0, i))},
			S: engine.Tuple{Key: in.key(1, i), Payload: ifaceBytes(in.payloadOf(1, i))},
		}
	}
}

func ifaceBytes(b []byte) interface{} {
	if b == nil {
		return nil
	}
	return b
}

func findSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
