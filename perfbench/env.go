package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/sandbox"
)

// env is one constructed serving stack: an in-process host.Server (what the
// workloads drive), or shard subprocesses behind a router on loopback HTTP
// (what the traced run's layer walk crosses).
type env struct {
	workers int // serving workers, and the generator's connection bound
	inv     invoker
	touch   touchSet
	sent    uint64    // requests sent into the stack through inv
	direct  uint64    // requests sent straight to the first shard
	first   []float64 // warm-up first-touch latencies, ns

	srv *host.Server // in-process

	cl     *cluster.Cluster // routed
	hs     *http.Server
	served chan error
}

// newInProcess builds a host.Server with a fresh process-wide image cache,
// so every set-up pays compile and verify.
func newInProcess(workers, poolCap int) *env {
	faas.Images = sandbox.NewCodeCache()
	return inProcessEnv(workers, poolCap)
}

func inProcessEnv(workers, poolCap int) *env {
	srv := host.New(host.Config{Workers: workers, Pool: host.PoolConfig{Cap: poolCap}, Seed: 1})
	return &env{workers: workers, srv: srv, inv: &inProcess{srv: srv, reg: inProcessRegistry(workers)}}
}

// kvTenants are the registry tenants that read and write the world's KV
// store.
var kvTenants = []string{"kv-session", "fan-in-agg"}

// inProcessRegistry is httpfront.DefaultRegistry, except that with more
// than one worker the KV tenants get a private world per instance:
// hostcall.KV is not safe for concurrent use, and two workers serving KV
// tenants from the one shared world crash the process with a concurrent
// map access. Shards run one worker each and keep the shared world.
func inProcessRegistry(workers int) map[string]httpfront.Tenant {
	reg := httpfront.DefaultRegistry(worldSeed)
	if workers > 1 {
		for _, name := range kvTenants {
			te := reg[name]
			te.Iso.World = nil
			reg[name] = te
		}
	}
	return reg
}

// newRouted launches shards single-worker shard subprocesses (this binary,
// re-executed) behind a router served on a loopback port, reached by a
// client holding one connection: the walk sends one request at a time.
func newRouted(shards int) (*env, error) {
	cl, err := cluster.Launch(cluster.LaunchOpts{N: shards, Shard: cluster.ShardSpec{
		Workers: 1, Policy: "block", Seed: 1, WorldSeed: worldSeed,
	}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	e := &env{workers: shards, cl: cl, hs: &http.Server{Handler: cl.Router.Handler()}, served: make(chan error, 1),
		inv: &overHTTP{client: newSerialClient("http://" + ln.Addr().String()), name: "cluster.Router"}}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// shardClient is a client straight to the first shard, bypassing the router.
func (e *env) shardClient() *httpfront.Client {
	return newSerialClient("http://" + e.cl.Procs[0].Addr)
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
		return
	}
	e.inv.(*overHTTP).client.CloseIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.cl.Close()
}

// conserve checks the ledger once every request sent has resolved. In
// process: the server admitted exactly what was sent, and admitted equals
// ok + timeout + fault + shed + rejected + canceled. Routed: every shard is
// healthy, the router proxied exactly what was sent, and each shard
// admitted exactly what the router delivered to it.
func (e *env) conserve() error {
	if e.srv != nil {
		c, s := e.srv.Counters(), e.srv.Snapshot(0)
		out := s.OK + s.Timeouts + s.Faults + s.Shed + s.Rejected + s.Canceled
		if c.Admitted != out || c.Admitted != e.sent {
			return fmt.Errorf("host ledger: sent %d, admitted %d, outcomes %d", e.sent, c.Admitted, out)
		}
		return nil
	}
	rt := e.cl.Router
	if !rt.Quiesce(10 * time.Second) {
		return fmt.Errorf("router did not quiesce")
	}
	rt.ScrapeOnce()
	doc := rt.StatszDoc().Cluster
	if doc.Proxied != e.sent {
		return fmt.Errorf("router ledger: sent %d, proxied %d", e.sent, doc.Proxied)
	}
	for i, sh := range doc.Shards {
		if !sh.Healthy {
			return fmt.Errorf("shard %s unhealthy", sh.Name)
		}
		want := sh.Delivered
		if i == 0 {
			want += e.direct
		}
		if sh.Admitted != want {
			return fmt.Errorf("fleet ledger: shard %s delivered %d (+%d direct), admitted %d", sh.Name, sh.Delivered, want-sh.Delivered, sh.Admitted)
		}
	}
	return nil
}
