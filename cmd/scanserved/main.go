// Command scanserved serves the scan-sharing engine over HTTP: the
// admission scheduler is the front door, query lifecycles are wired to
// their connections (disconnect cancels, request deadlines kill), and
// results stream back as NDJSON through bounded send buffers so slow
// clients backpressure into the engine instead of ballooning memory.
//
// Usage:
//
//	scanserved [-addr :8080] [-policy pbm] [engine flags]
//
// Endpoints (see the wire package for the schema):
//
//	POST /v1/query   wire.QueryRequest -> NDJSON rows + wire.QueryResult
//	POST /v1/update  wire.UpdateRequest -> wire.UpdateResult (PDT write path)
//	GET  /v1/statz   wire.Statz (the live serve-table row)
//	GET  /healthz    "ok", or 503 "draining" during shutdown
//
// Engine knobs reuse scanbench's serving axes (-mpls, -shards,
// -devices, -iosched, -policies, ...; multi-valued axes contribute
// their first element). Client-mix axes (-rates, -selectivities,
// -deadline, -cancel, ...) belong to the load generator (cmd/scanload)
// and are rejected.
//
// On SIGTERM/SIGINT the server drains: admission refuses new queries
// with outcome "draining", running queries finish, the final stats
// snapshot is flushed to stdout as wire.Statz JSON, and the process
// exits 0 on a clean drain (1 if the drain timed out).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	scanshare "repro"
	"repro/internal/server"
)

// Connection limits. A client gets readHeaderTimeout to send its request
// headers, and an idle keep-alive connection is closed after
// idleTimeout. There is no read or write timeout on the whole request:
// a result stream lasts as long as its client keeps reading, and a slow
// reader backpressures the plan instead.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		sf       = flag.Float64("sf", 0.05, "TPC-H scale factor of the generated data")
		seed     = flag.Int64("seed", 42, "generator seed")
		threads  = flag.Int("threads", 0, "override threads per query")
		cores    = flag.Int("cores", 0, "override worker-pool cores")
		cpu      = flag.Duration("cpu", 0, "override per-tuple CPU cost")
		policy   = flag.String("policy", "pbm", "buffer-management policy (lru, mru, clock, pbm, pbm-lru, cscans)")
		sendbuf  = flag.Int("sendbuf", 8, "per-query send buffer in batches; a full buffer backpressures the plan")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	)
	var axes scanshare.ServeAxes
	axes.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := axes.Parse(); err != nil {
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(2)
	}
	// Client-mix axes shape the traffic, not the server.
	var clientSide []string
	for _, ax := range []struct {
		name string
		set  bool
	}{
		{"rates", len(axes.Rates) > 0},
		{"selectivities", len(axes.Selectivities) > 0},
		{"hotfrac", axes.HotFrac != 0},
		{"hotprob", axes.HotProb != 0},
		{"deadline", axes.Deadline != 0},
		{"cancel", axes.CancelRate != 0},
		{"writefrac", axes.WriteFrac != 0},
		{"json", axes.JSONOut != ""},
	} {
		if ax.set {
			clientSide = append(clientSide, ax.name)
		}
	}
	if len(clientSide) > 0 {
		fmt.Fprintf(os.Stderr, "scanserved: -%s are client-mix knobs; pass them to scanload\n", strings.Join(clientSide, "/-"))
		os.Exit(2)
	}
	pol, ok := scanshare.ParsePolicy(*policy)
	if !ok {
		names := make([]string, 0, 6)
		for _, p := range scanshare.BufferPolicies() {
			names = append(names, p.String())
		}
		fmt.Fprintf(os.Stderr, "scanserved: unknown policy %q (valid: %s)\n", *policy, strings.Join(names, ", "))
		os.Exit(2)
	}

	base := scanshare.Options{
		SF: *sf, Seed: *seed, ThreadsPerQuery: *threads, Cores: *cores,
		PerTupleCPU: *cpu, StripeChunk: axes.StripeChunk,
	}
	cfg := scanshare.NewServeEngineConfig(base, axes)
	cfg.Policy = pol

	fmt.Printf("scanserved: generating TPC-H sf=%g (clustered=%v)\n", *sf, axes.Clustered)
	db := scanshare.GenerateTPCHOpt(*sf, *seed, scanshare.TPCHGenOptions{ClusteredShipdate: axes.Clustered})
	srv := server.New(db, server.Config{Serve: cfg, SendBuf: *sendbuf, DrainTimeout: *drainFor})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ConnContext:       srv.ConnContext,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("scanserved: serving %d tuples on %s (policy=%s admission=%s mpl=%d tenants=%d)\n",
		srv.Engine().NumTuples(), ln.Addr(), pol, srv.Statz().Stats.Admission,
		srv.Engine().Config().MPL, srv.Engine().TenantCount())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "scanserved: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Printf("scanserved: %v: draining\n", sig)
	}

	// Drain first — admission refuses ("draining") while running and
	// queued queries finish — then close the listener and flush stats.
	drainErr := srv.Drain(context.Background())
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shCtx)

	st := srv.Statz()
	b, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(b))
	srv.Close()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "scanserved: drain: %v\n", drainErr)
		os.Exit(1)
	}
	if n := st.Stats.Completed + st.Stats.Rejected + st.Stats.TimedOut + st.Stats.Cancelled; n != st.Arrived {
		fmt.Fprintf(os.Stderr, "scanserved: stats do not reconcile: %d resolved != %d arrived\n", n, st.Arrived)
		os.Exit(1)
	}
	fmt.Printf("scanserved: drained clean (%d completed, %d drain-refused)\n", st.Stats.Completed, st.DrainRejected)
}
