package cluster

import (
	"fmt"
	"os"
	"time"

	"hfi/internal/host"
	"hfi/internal/httpfront"
)

// Cluster bundles a running router with the shard subprocesses it fronts.
type Cluster struct {
	Router *Router
	Procs  []*ShardProc
}

// LaunchOpts configures Launch.
type LaunchOpts struct {
	// Bin is the shard executable ("" ⇒ os.Executable(): any HFI binary
	// that checks IsShardProc first re-execs itself as its own shards).
	Bin string
	// N is the shard count.
	N int
	// Shard is the per-shard spec template; Name/AddrFile are filled in
	// per member and Seed is offset by the member index so same-tenant
	// schedules differ across shards.
	Shard ShardSpec
	// Router is the routing policy.
	Router Config
}

// Launch spawns N shards, completes their port handshakes, registers them
// with a fresh router, and starts the health loop. On any spawn failure
// the already-started members are killed.
func Launch(o LaunchOpts) (*Cluster, error) {
	bin := o.Bin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		bin = exe
	}
	if o.N <= 0 {
		o.N = 3
	}
	var procs []*ShardProc
	for i := 0; i < o.N; i++ {
		spec := o.Shard
		spec.Name = fmt.Sprintf("shard-%d", i)
		spec.Seed += int64(i)
		if spec.WorldSeed == 0 {
			spec.WorldSeed = 1
		}
		p, err := Spawn(bin, spec)
		if err != nil {
			for _, q := range procs {
				q.Kill()
			}
			return nil, err
		}
		procs = append(procs, p)
	}
	rt := NewRouter(o.Router)
	for _, p := range procs {
		rt.AddShard(p.Spec.Name, p.Addr, p)
	}
	rt.Start()
	return &Cluster{Router: rt, Procs: procs}, nil
}

// Proc returns the subprocess named name, or nil.
func (c *Cluster) Proc(name string) *ShardProc {
	for _, p := range c.Procs {
		if p.Spec.Name == name {
			return p
		}
	}
	return nil
}

// Close stops the router loop and shuts every still-running shard down via
// its drain path (Stop is safe on already-killed members).
func (c *Cluster) Close() {
	c.Router.Stop()
	for _, p := range c.Procs {
		p.Stop()
	}
}

// SweepTarget launches a fresh fleet behind a loopback router listener as
// one point of a host.RunSweep. Its Check waits for the router to settle
// and refreshes the shards' admitted counters, then enforces the fleet
// ledger — every live shard admitted exactly the requests the router
// delivered to it — and stamps the router's view onto the point.
func SweepTarget(o LaunchOpts) (host.Target, error) {
	cl, err := Launch(o)
	if err != nil {
		return host.Target{}, err
	}
	t, err := httpfront.LoopbackTarget(cl.Router.Handler(), cl.Close)
	if err != nil {
		return t, err
	}
	t.Check = func(pt *host.SweepPoint) error {
		if !cl.Router.Quiesce(10 * time.Second) {
			return fmt.Errorf("router did not quiesce")
		}
		cl.Router.ScrapeOnce()
		c := cl.Router.StatszDoc().Cluster
		for _, sh := range c.Shards {
			if sh.Healthy && sh.Delivered != sh.Admitted { // dead members' counters are unobservable
				return fmt.Errorf("fleet ledger: shard %s delivered %d != admitted %d",
					sh.Name, sh.Delivered, sh.Admitted)
			}
		}
		pt.Shards = len(c.Shards)
		pt.RoutingHitRate = c.RoutingHitRate
		pt.Hedges, pt.Retries = c.Hedges, c.Retries
		pt.Migrations, pt.TransportErrors = c.Migrations, c.TransportErrors
		return nil
	}
	return t, nil
}
