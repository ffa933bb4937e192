// Command veloctd is the multi-tenant invariant-learning daemon: it serves
// learn / verify / synthesize jobs over HTTP/JSON, multiplexing concurrent
// learning sessions over one shared cross-run verification cache with
// per-tenant namespacing, bounded fair-share queueing, per-job deadlines,
// and graceful drain on SIGTERM.
//
// Examples:
//
//	veloctd -addr :8723
//	veloctd -addr :8723 -serve-workers 4 -cache-dir .hhcache
//
//	curl -s localhost:8723/v1/jobs -d '{"kind":"verify","design":"small","safe":["add","sub"]}'
//	curl -s localhost:8723/v1/jobs/j00000001
//	curl -s localhost:8723/v1/stats
//
// Shutdown: the first SIGINT/SIGTERM stops admission (POST /v1/jobs and
// /readyz turn 503), lets in-flight jobs finish within -drain-timeout,
// cancels the rest (each resolves with a typed cancellation), flushes the
// proof stores, and exits. A second signal force-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hhoudini "hhoudini/internal/hhoudini"
	"hhoudini/internal/proofdb"
	"hhoudini/internal/serve"
)

var (
	flagAddr         = flag.String("addr", ":8723", "listen address")
	flagServeWorkers = flag.Int("serve-workers", 2, "executor pool size (the in-flight job cap)")
	flagJobWorkers   = flag.Int("job-workers", 1, "default per-job learner workers (spec may override)")
	flagMaxQueued    = flag.Int("max-queued", 64, "global queued-job cap (admission beyond it is 429)")
	flagTenantQueue  = flag.Int("tenant-queue", 8, "per-tenant queued-job cap (fair-share backstop)")
	flagJobTimeout   = flag.Duration("job-timeout", 2*time.Minute, "default per-job deadline")
	flagMaxTimeout   = flag.Duration("max-job-timeout", 10*time.Minute, "cap on the per-job deadline a spec may request")
	flagDrain        = flag.Duration("drain-timeout", 15*time.Second, "grace for in-flight jobs on shutdown before cancellation")
	flagCacheDir     = flag.String("cache-dir", "", "persist the verification cache in this directory across restarts")
	flagPersist      = flag.Bool("persist", false, "shorthand for -cache-dir "+proofdb.DefaultDir)

	flagJournal = flag.Bool("journal", true,
		"append each proof-store delta to the file as it lands instead of only at flush")
	flagJournalSync = flag.String("journal-sync", "flush",
		"append sync policy: 'every' (fsync per record, zero loss), 'flush' (loss window = records since last persist)")
)

// journalOptions maps the -journal* flags onto the proof store's append
// configuration, or exits on an unknown sync policy.
func journalOptions() proofdb.JournalOptions {
	opts := proofdb.JournalOptions{Enable: *flagJournal}
	switch *flagJournalSync {
	case "flush":
		opts.Sync = proofdb.SyncOnFlush
	case "every":
		opts.Sync = proofdb.SyncEveryRecord
	default:
		fmt.Fprintf(os.Stderr, "veloctd: -journal-sync=%q: want every or flush\n", *flagJournalSync)
		os.Exit(2)
	}
	return opts
}

func main() {
	flag.Parse()
	if *flagPersist && *flagCacheDir == "" {
		*flagCacheDir = proofdb.DefaultDir
	}
	hhoudini.SetDefaultJournal(journalOptions())

	srv := serve.New(serve.Config{
		Workers:            *flagServeWorkers,
		JobWorkers:         *flagJobWorkers,
		MaxQueued:          *flagMaxQueued,
		MaxQueuedPerTenant: *flagTenantQueue,
		DefaultTimeout:     *flagJobTimeout,
		MaxTimeout:         *flagMaxTimeout,
		CacheDir:           *flagCacheDir,
	})

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "veloctd:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("veloctd: listening on %s (serve-workers=%d, queue=%d/%d per tenant)\n",
		ln.Addr(), *flagServeWorkers, *flagTenantQueue, *flagMaxQueued)

	// The HTTP listener stays up through the drain so clients can keep
	// polling job status (including the typed cancellations the drain
	// hands out); only after the service core is fully drained does the
	// listener close.
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "veloctd: %v: draining (a second signal force-exits)\n", sig)
		signal.Stop(sigc)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "veloctd: serve:", err)
		os.Exit(1)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *flagDrain)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "veloctd: drain:", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "veloctd: http shutdown:", err)
	}
	fmt.Println("veloctd: drained")
}
