package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsan/internal/obs"
	"wsan/internal/server"
)

// runServe implements the serve subcommand: it starts the network-manager
// daemon and blocks until SIGINT/SIGTERM, then drains gracefully — running
// jobs get -drain-timeout to finish while new submissions are rejected.
func runServe(args []string, mets obs.Sink) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queueCap := fs.Int("queue", 64, "job queue capacity (full queue ⇒ 429)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job watchdog; a job running longer fails (0 = off)")
	jobRetries := fs.Int("job-retries", 2, "retry budget for transiently failing jobs")
	retryBackoff := fs.Duration("retry-backoff", 250*time.Millisecond, "delay before the first retry, doubling per attempt")
	storeDir := fs.String("store-dir", "", "artifact store directory; set to persist artifacts across restarts (empty = in-memory only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "artifact store byte budget; exceeding it evicts least-recently-used artifacts (0 = unbounded)")
	storeTTL := fs.Duration("store-ttl", 0, "artifact expiry; artifacts older than this are evicted (0 = keep forever)")
	storeMemBytes := fs.Int64("store-mem-bytes", 0, "resident-memory budget of a durable store; colder artifacts are read back from disk (0 = 256MiB; needs -store-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The daemon needs a snapshot-capable registry for /metrics. Reuse the
	// CLI-level registry when -metrics/-metrics-out/-pprof created one, so
	// the exit dump and the live endpoint agree; otherwise make our own.
	reg, _ := mets.(*obs.Registry)
	if reg == nil {
		reg = obs.NewRegistry()
	}
	srv, err := server.New(server.Config{
		Workers:       *workers,
		QueueCap:      *queueCap,
		JobTimeout:    *jobTimeout,
		MaxRetries:    *jobRetries,
		RetryBackoff:  *retryBackoff,
		Metrics:       reg,
		EnablePprof:   true,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMaxBytes,
		StoreTTL:      *storeTTL,
		StoreMemBytes: *storeMemBytes,
	})
	if err != nil {
		return fmt.Errorf("opening artifact store: %w", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Fprintf(os.Stderr, "wsansim serve: listening on %s (workers=%d queue=%d)\n",
		*addr, *workers, *queueCap)

	select {
	case err := <-errc:
		// The listener failed before any signal (e.g. port in use).
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "wsansim serve: shutting down (draining jobs)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "wsansim serve: http shutdown:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "wsansim serve: job drain:", err)
	}
	return <-errc
}
