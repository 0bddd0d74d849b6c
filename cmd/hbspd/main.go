// Command hbspd serves the prediction API as a standalone daemon.
//
//	hbspd [-addr :8321] [-max-concurrent n] [-max-queue n]
//	      [-cache-entries n] [-machine-entries n] [-drain-timeout d]
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503 so load balancers
// stop routing here, new predictions are shed, in-flight requests finish
// (bounded by -drain-timeout), then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hbsp/server"
)

// readHeaderTimeout bounds the reading of a request's headers, counted from
// the accept on a new connection and from the request's first bytes on a
// kept-alive one. The limiter bounds evaluations; this bounds what is parked
// in front of the handler, so a peer that connects or starts a request and
// then stops is hung up on instead of holding a goroutine and a descriptor
// for the life of the process. A connection idling between two requests is
// not affected. One deployment, one value: a constant, not a flag.
const readHeaderTimeout = 10 * time.Second

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8321", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max concurrent evaluations (0 = default)")
	maxQueue := flag.Int("max-queue", 0, "max queued evaluations before shedding (0 = default)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache capacity (0 = default, negative disables)")
	machineEntries := flag.Int("machine-entries", 0, "machine cache capacity (0 = default, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGTERM")
	flag.Parse()

	cfg := server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		CacheEntries:   *cacheEntries,
		MachineEntries: *machineEntries,
	}
	if err := serve(cfg, *addr, *drainTimeout); err != nil {
		log.Fatalf("hbspd: %v", err)
	}
}

// newHTTPServer is the daemon's listener configuration around the handler.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains.
func serve(cfg server.Config, addr string, drainTimeout time.Duration) error {
	srv := server.New(cfg)
	httpSrv := newHTTPServer(addr, srv)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("hbspd: listening on %s", addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("hbspd: %v, draining (up to %v)", sig, drainTimeout)
	}

	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("hbspd: drained")
	return nil
}
