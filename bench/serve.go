package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"stochstream/internal/shardrt"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// served is one client session against an in-process daemon on loopback
// (cmd/stochstreamd cannot be given stream models). One synchronous client,
// closed loop: the protocol keeps one batch in flight and a producer blocks
// on Ingest, so that is the load a single producer can offer.
type served struct {
	in   *inputs
	cfg  streamd.Config
	srv  *streamd.Server
	cl   *client.Client
	chk  checker
	buf  []wire.Step
	sent int // steps ingested so far = index of the next step
	// lastStart is when the latest client.Ingest call began.
	lastStart time.Time

	attempted, failed int
	// extraDials counts connections the client opened beyond the one each
	// daemon instance it talks to is due.
	extraDials int
	dialDue    bool
	// digests holds one digest per reply, in batch order, for the replay
	// oracle; it is filled only while record is set (warm-up to the end of
	// the verify window) and preallocated so it never shows as heap growth.
	digests       []uint64
	record        bool
	recordedPairs int // pairs received while recording

	// Totals of the daemon's conservation counters over every daemon
	// instance of the session (each restart starts a fresh registry).
	srvSteps, srvPairs, srvSheds, srvDups, srvRejects, srvInternal int64
}

// serve starts a daemon for sp and dials it. obs turns the runtime's
// telemetry and flight recorder on (the traced run); ckpt, when non-empty,
// is where Drain writes and Start restores.
func serve(sp *spec, in *inputs, seed uint64, obs bool, ckpt string) (*served, error) {
	sv := &served{
		in: in,
		cfg: streamd.Config{
			Runtime: shardrt.Config{
				Shards: sp.shards, TotalCache: sp.cache, Procs: sp.procs(), Seed: seed,
				Telemetry: obs, Flight: obs,
			},
			Listen:         "127.0.0.1:0",
			CheckpointPath: ckpt,
		},
		chk:     checker{in: in},
		buf:     make([]wire.Step, sp.batch),
		digests: make([]uint64, 0, (sp.warm+sp.q+sp.verify)/sp.batch),
		dialDue: true,
	}
	if err := sv.start(); err != nil {
		return nil, err
	}
	cl, err := client.Dial(client.Options{
		Addr: "daemon", Session: "bench", Seed: seed, MaxBatch: sp.batch,
		// The daemon comes back on a fresh port after every restart; the
		// dialer follows it and counts reconnects for client.retries.
		Dialer: func(string) (net.Conn, error) {
			if !sv.dialDue {
				sv.extraDials++
			}
			sv.dialDue = false
			return net.Dial("tcp", sv.srv.Addr())
		},
	})
	if err != nil {
		_ = sv.srv.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	sv.cl = cl
	return sv, nil
}

func (sv *served) start() error {
	srv, err := streamd.Start(sv.cfg)
	if err != nil {
		return fmt.Errorf("start daemon: %w", err)
	}
	sv.srv = srv
	sv.dialDue = true
	return nil
}

// ingest sends the next batch and checks its reply. The returned duration
// is the client.Ingest round trip alone.
func (sv *served) ingest() (time.Duration, error) {
	sv.in.fillWire(sv.buf, sv.sent)
	sv.attempted++
	sv.lastStart = time.Now()
	pairs, err := sv.cl.Ingest(sv.buf)
	rtt := time.Since(sv.lastStart)
	if err != nil {
		sv.failed++
		return rtt, fmt.Errorf("ingest batch at step %d: %w", sv.sent, err)
	}
	sv.sent += len(sv.buf)
	dig := sv.chk.wireReply(pairs, sv.sent)
	if sv.record {
		sv.digests = append(sv.digests, dig)
	}
	return rtt, nil
}

// run ingests steps more steps.
func (sv *served) run(steps int) error {
	for end := sv.sent + steps; sv.sent < end; {
		if _, err := sv.ingest(); err != nil {
			return err
		}
	}
	return nil
}

// harvest adds the live daemon's counters to the session totals; call it
// once per daemon instance, just before that instance stops.
func (sv *served) harvest() {
	reg := sv.srv.Registry()
	get := func(name string) int64 { return reg.Counter(name).Value() }
	sv.srvSteps += get("streamd_steps_total")
	sv.srvPairs += get("streamd_pairs_total")
	sv.srvSheds += get("streamd_shed_queue_total") + get("streamd_shed_mem_total") + get("streamd_shed_slow_total")
	sv.srvDups += get("streamd_dup_batches_total")
	sv.srvRejects += get("streamd_drain_rejects_total")
	sv.srvInternal += get("streamd_internal_errors_total")
}

// drainRestart drains the daemon to its checkpoint and starts a new one from
// it; the client finds the new daemon on its next Ingest and resumes.
func (sv *served) drainRestart() (drain, restore time.Duration, ckptBytes int64, err error) {
	sv.harvest()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	if err := sv.srv.Drain(ctx); err != nil {
		return 0, 0, 0, fmt.Errorf("drain: %w", err)
	}
	drain = time.Since(t0)
	st, err := os.Stat(sv.cfg.CheckpointPath)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	t0 = time.Now()
	if err := sv.start(); err != nil {
		return 0, 0, 0, err
	}
	return drain, time.Since(t0), st.Size(), nil
}

// close detaches the client and stops the daemon without a checkpoint.
func (sv *served) close() error {
	err := sv.cl.Close()
	sv.harvest()
	return errors.Join(err, sv.srv.Close())
}

// conservation checks the daemon's counters against what the client saw and
// folds every shed, refused or internally failed batch into failed.
func (sv *served) conservation() []string {
	var bad []string
	if int(sv.srvSteps) != sv.sent {
		bad = append(bad, fmt.Sprintf("streamd_steps_total = %d, client sent %d steps", sv.srvSteps, sv.sent))
	}
	if int(sv.srvPairs) != sv.chk.total {
		bad = append(bad, fmt.Sprintf("streamd_pairs_total = %d, client received %d pairs", sv.srvPairs, sv.chk.total))
	}
	if sv.srvInternal != 0 {
		bad = append(bad, fmt.Sprintf("streamd_internal_errors_total = %d", sv.srvInternal))
	}
	sv.failed += int(sv.srvSheds + sv.srvRejects + sv.srvInternal)
	return bad
}

// retries is every client-side retry the session can see from outside:
// reconnects no restart called for, plus sheds, refusals and replayed
// duplicates.
func (sv *served) retries() int {
	return sv.extraDials + int(sv.srvSheds+sv.srvRejects+sv.srvDups)
}

// scratchDir makes a private directory for checkpoints and traces under
// root (inside the checkout: the benchmark writes nowhere else).
func scratchDir(root string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		_ = os.RemoveAll(dir)
		_ = os.Remove(root) // succeeds only when no other run is using it
	}, nil
}

func ckptPath(dir string, n int) string { return filepath.Join(dir, fmt.Sprintf("daemon-%d.ckpt", n)) }
