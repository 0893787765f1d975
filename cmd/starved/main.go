// Command starved is the long-running experiment service: a daemon that
// accepts batches of population experiments over HTTP, schedules them
// fairly across clients, executes them on a shared worker pool backed by
// the content-addressed artifact cache, and streams per-job progress live.
//
// Usage:
//
//	starved -addr :8377 -data ./starved-data
//	starved -addr 127.0.0.1:0 -data /var/lib/starved -jobs 8 -queue 4096
//
// The API (see internal/service.Handler for the full table):
//
//	POST   /batches                      submit a batch (202; 400/429/503)
//	GET    /batches/{id}                 status
//	GET    /batches/{id}/events          live JSONL/SSE event stream
//	GET    /batches/{id}/artifacts/{job} one job's rendered output
//	GET    /metrics                      Prometheus text exposition
//	GET    /healthz                      liveness (503 while draining)
//	GET    /debug/queue                  scheduler state
//	GET    /                             HTML dashboard
//
// Batch bodies use the CLI's population clause grammar (-flows, -topology,
// …); a malformed spec returns 400 carrying the exact message the CLI
// exits 2 with. `starvesim -server <addr> -flows …` is the matching
// client: it runs a population experiment on the daemon and prints output
// byte-identical to a local run.
//
// On startup the daemon prints one line, "starved: listening on <addr>",
// with the bound address — pass -addr :0 and parse that line to run on a
// random free port (the CI smoke job does exactly this).
//
// SIGINT or SIGTERM drains the daemon: admission stops (503), queued jobs
// are discarded (their batch records and manifests resume them on the
// next start, restoring completed work from the cache without
// re-simulating), running jobs get -drain-grace to finish, and the
// process exits 3 — the CLI's "interrupted with a clean drain" status.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"starvation/internal/runner"
	"starvation/internal/service"

	// Register every algorithm so batch specs can name any CCA the CLI can.
	_ "starvation/internal/cca/algo1"
	_ "starvation/internal/cca/allegro"
	_ "starvation/internal/cca/bbr"
	_ "starvation/internal/cca/constwnd"
	_ "starvation/internal/cca/copa"
	_ "starvation/internal/cca/cubic"
	_ "starvation/internal/cca/fast"
	_ "starvation/internal/cca/ledbat"
	_ "starvation/internal/cca/reno"
	_ "starvation/internal/cca/vegas"
	_ "starvation/internal/cca/verus"
	_ "starvation/internal/cca/vivace"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8377", "listen address (\":0\" picks a random free port, reported on stdout)")
		data       = flag.String("data", "starved-data", "state directory: artifact cache, batch records, manifests")
		jobs       = flag.Int("jobs", 0, "concurrently executing jobs (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", service.DefaultQueueDepth, "max queued jobs across all clients before submissions get 429")
		deadline   = flag.Duration("deadline", 0, "wall-clock budget per job (0 = unlimited)")
		retries    = flag.Int("retries", 1, "attempts per job for batches without a chaos spec (1 = no retries)")
		drainGrace = flag.Duration("drain-grace", service.DefaultDrainGrace, "how long a drain lets running jobs finish before cancelling them")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "starved: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	svc, err := service.New(service.Config{
		DataDir:     *data,
		Workers:     *jobs,
		QueueDepth:  *queue,
		JobDeadline: *deadline,
		Retry:       runner.RetryPolicy{MaxAttempts: *retries},
		DrainGrace:  *drainGrace,
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Printf("starved: %v", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("starved: %v", err)
		os.Exit(1)
	}
	// Catch SIGINT and SIGTERM before the service starts and the contract
	// line goes out: a caller may signal the moment it reads that line,
	// and the signal must drain the daemon, not kill it.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	svc.Start()
	// The contract line: CI and scripts bind :0 and parse the real port
	// from here. Keep the format stable.
	fmt.Printf("starved: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			logger.Printf("starved: %v", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stopSignals() // a second signal kills immediately
		logger.Printf("starved: signal received; draining")
		// Drain first so in-flight work lands in manifests; open event
		// streams for non-terminal batches are then cut by the shutdown
		// deadline (their batches resume on the next start).
		svc.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = hs.Shutdown(shutCtx)
		cancel()
		_ = hs.Close()
		logger.Printf("starved: drained; exiting")
		os.Exit(3)
	}
}
