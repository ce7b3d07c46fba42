// Command stochstreamd runs the stream-join daemon: the sharded runtime
// mounted behind the framed TCP protocol and an HTTP observability surface,
// with overload shedding, per-session flow control and checkpointed
// graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	stochstreamd -listen :7070 -http :7071 -cache 4096 \
//	    -checkpoint /var/lib/stochstream/streamd.ckpt
//
// On SIGTERM the daemon stops admitting work, flushes every in-flight
// batch through the engine, writes the checkpoint, notifies clients and
// exits 0. Started again with the same flags it restores the checkpoint
// and continues the stream byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stochstream/internal/shardrt"
	"stochstream/internal/streamd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, nil))
}

// run is the testable entrypoint: sigCh overrides the OS signal wiring so
// tests can drive the drain path deterministically.
func run(args []string, stdout io.Writer, sigCh <-chan os.Signal) int {
	fs := flag.NewFlagSet("stochstreamd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		listen     = fs.String("listen", "127.0.0.1:7070", "framed-protocol TCP listen address")
		httpAddr   = fs.String("http", "", "HTTP surface listen address (empty disables)")
		shards     = fs.Int("shards", 1, "runtime shard count: each shard steps its keys' arrivals on the stream's clock with an even share of -cache; on the ledger's trend 4 shards keep 0.96-0.98 of 1 shard's yield at any uptime")
		cache      = fs.Int("cache", 1024, "total cache budget across shards")
		window     = fs.Int("window", 0, "sliding-window size in global steps (0 = unbounded)")
		seed       = fs.Uint64("seed", 1, "runtime policy seed")
		queue      = fs.Int("queue", 64, "engine ingest queue depth (batches); full queue sheds")
		credits    = fs.Int("credits", 4096, "per-session flow-control window in steps")
		memLimitMB = fs.Uint64("mem-limit-mb", 0, "heap soft limit in MiB; above it new batches shed (0 disables)")
		retryAfter = fs.Duration("retry-after", 50*time.Millisecond, "backoff hint attached to overload rejections")
		readTO     = fs.Duration("read-timeout", 2*time.Minute, "per-frame read deadline (idle connection bound)")
		writeTO    = fs.Duration("write-timeout", 30*time.Second, "per-frame write deadline")
		sessionTTL = fs.Duration("session-ttl", 15*time.Minute, "detached session retention")
		ckpt       = fs.String("checkpoint", "", "checkpoint path: restored at startup, written on drain")
		drainTO    = fs.Duration("drain-timeout", 30*time.Second, "bound on the drain's engine flush")
		flight     = fs.Bool("flight", false, "attach flight recorders to every shard")
		telem      = fs.Bool("telemetry", true, "attach telemetry registries to every shard")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	srv, err := streamd.Start(streamd.Config{
		Runtime: shardrt.Config{
			Shards:     *shards,
			TotalCache: *cache,
			Window:     *window,
			Seed:       *seed,
			Telemetry:  *telem,
			Flight:     *flight,
		},
		Listen:         *listen,
		HTTPListen:     *httpAddr,
		Credits:        *credits,
		QueueDepth:     *queue,
		MemSoftLimit:   *memLimitMB << 20,
		RetryAfter:     *retryAfter,
		ReadTimeout:    *readTO,
		WriteTimeout:   *writeTO,
		SessionTTL:     *sessionTTL,
		CheckpointPath: *ckpt,
	})
	if err != nil {
		fmt.Fprintf(stdout, "stochstreamd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "stochstreamd: listening on %s\n", srv.Addr())
	if a := srv.HTTPAddr(); a != "" {
		fmt.Fprintf(stdout, "stochstreamd: http on %s\n", a)
	}

	if sigCh == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
		defer signal.Stop(ch)
		sigCh = ch
	}
	sig := <-sigCh
	fmt.Fprintf(stdout, "stochstreamd: %v, draining\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(stdout, "stochstreamd: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "stochstreamd: drained")
	return 0
}
