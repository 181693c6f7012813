// Command hfihttpd serves the multi-tenant sandbox host (internal/host)
// over HTTP via internal/httpfront: per-tenant invoke routes, drain-aware
// health, and JSON stats — the front door real load generators (vegeta,
// hey, wrk) point at.
//
// Usage:
//
//	hfihttpd -addr :8080                 # serve the default tenant registry
//	hfihttpd -policy shed -queue 16      # real 429s under overload
//	hfihttpd -fuel-per-second 5e7        # client deadlines shrink fuel budgets
//	hfihttpd -selfdrive                  # built-in open-loop HTTP sweep, then exit
//	hfihttpd -selfdrive -rates 200,800 -requests 200 -json
//
// Routes:
//
//	POST /v1/tenants/{tenant}/invoke     # body = guest input (empty ⇒ synthetic)
//	GET  /healthz                        # 200, or 503 once draining
//	GET  /statsz                         # serve summary + per-tenant + counters
//
// On SIGINT/SIGTERM the server drains: /healthz flips to 503 (load
// balancers stop routing), queued and in-flight requests finish with real
// outcomes, then the listener shuts down. Requests arriving after the
// host closes get 503 + Retry-After.
//
// -selfdrive binds a loopback listener and drives it with the one
// open-loop Poisson generator (host.RunOpenLoop) behind `hfiserve -mode
// sweep` and `hfirouter -selfdrive`, but over real HTTP — wire cost,
// status mapping, and client disconnects included; one fresh server per
// offered rate, tenants drawn uniformly from the registry by a seeded
// PRNG. Every point must account each offered request to exactly one
// outcome. The table (and the host.SweepReport -json document) is the
// p99-vs-rate hockey stick.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/host"
	"hfi/internal/httpfront"
)

func main() {
	// Shard role: when a router spawned this process, serve as its
	// backend (the spec rides the environment) instead of parsing flags.
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth per tenant (0 = 2x workers)")
		policy    = flag.String("policy", "shed", "backpressure policy: block | shed (shed ⇒ real 429s)")
		fuel      = flag.Uint64("fuel", 0, "per-request instruction budget (0 = unlimited)")
		fuelPerS  = flag.Float64("fuel-per-second", 0, "deadline→fuel conversion (instructions per second of client deadline; 0 = off)")
		dispatch  = flag.Duration("dispatch", 0, "wall-clock per-request dispatch overhead (selfdrive/test realism)")
		seed      = flag.Int64("seed", 1, "request schedule seed (selfdrive)")
		drainWait = flag.Duration("drain-wait", 500*time.Millisecond, "pause after flipping /healthz before closing the host")
		selfdrive = flag.Bool("selfdrive", false, "run the open-loop HTTP sweep against an in-process listener and exit")
		rates     = flag.String("rates", "200,400,800,1200,1600,2400", "offered rates for -selfdrive, req/s")
		requests  = flag.Int("requests", 200, "requests per rate in -selfdrive")
		jsonOut   = flag.Bool("json", false, "emit the -selfdrive result as JSON")
	)
	flag.Parse()

	var pol host.Policy
	switch *policy {
	case "block":
		pol = host.PolicyBlock
	case "shed":
		pol = host.PolicyShed
	default:
		fmt.Fprintf(os.Stderr, "hfihttpd: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	cfg := host.Config{
		Workers: *workers, QueueDepth: *queue, Policy: pol,
		Fuel: *fuel, FuelPerSecond: uint64(*fuelPerS),
		DispatchWall: *dispatch,
		Retry:        host.RetryConfig{Max: 2},
		Seed:         *seed,
	}

	if *selfdrive {
		os.Exit(runSelfdrive(cfg, *rates, *requests, *jsonOut))
	}
	os.Exit(serve(cfg, *addr, *drainWait))
}

// registry is the shared default tenant set (see
// httpfront.DefaultRegistry): the DefaultMix classes plus the hostcall
// guests under one seeded world, and the "faulty" trap tenant.
func registry() map[string]httpfront.Tenant { return httpfront.DefaultRegistry(1) }

// serve runs the front until SIGINT/SIGTERM, then drains: healthz → 503,
// wait for load balancers to notice, close the host (queued work finishes
// with real outcomes), shut the listener down.
func serve(cfg host.Config, addr string, drainWait time.Duration) int {
	front := httpfront.New(host.New(cfg), registry())
	hs := &http.Server{Addr: addr, Handler: front.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hfihttpd: serving on %s (%d workers, policy %s)\n",
		addr, front.Host().Workers(), cfg.Policy)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "hfihttpd: draining (healthz → 503)")
	front.BeginDrain()
	time.Sleep(drainWait)
	front.Host().Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "hfihttpd: drained")
	return 0
}

// runSelfdrive sweeps offered rates over real HTTP: one fresh server,
// front, and loopback listener per rate so queue state never bleeds
// between points.
func runSelfdrive(cfg host.Config, rateList string, perRate int, jsonOut bool) int {
	rates, err := host.ParseRates(rateList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	reg := registry()
	launch := func() (host.Target, error) {
		front := httpfront.New(host.New(cfg), reg)
		return httpfront.LoopbackTarget(front.Handler(), front.Host().Close)
	}
	run, err := host.RunSweep(cfg.Workers, launch, httpfront.NameMix(httpfront.RegistryNames(reg)), rates, perRate, cfg.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 1
	}
	rep := host.SweepReport{Seed: cfg.Seed, Mode: "selfdrive", Policy: cfg.Policy.String(),
		Unit: "workers", PerRate: perRate, Sweeps: []host.SweepRun{run}}
	if err := rep.Print(os.Stdout, jsonOut, "real HTTP over loopback: latencies include wire + front overhead"); err != nil {
		fmt.Fprintln(os.Stderr, "hfihttpd:", err)
		return 1
	}
	return 0
}
