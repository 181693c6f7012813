package main

import (
	"context"
	"fmt"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/sandbox"
	"hfi/internal/stats"
)

// Layer-walk sizes: requests sampled from the workload, timed passes over
// them, timed passes over every tenant's variants, and provisioning reps.
const (
	walkSample   = 120
	walkPasses   = 4
	tierPasses   = 4
	provisionRep = 3
	resetReps    = 200
	scrapeReps   = 5
)

// serveInvoker calls TenantInstance.ServeBody on one private warm instance
// per class: the layer under the host, with nothing else on the path.
type serveInvoker struct {
	reg  map[string]httpfront.Tenant
	inst map[string]*faas.TenantInstance
}

func (s *serveInvoker) layer() string { return "faas.ServeBody" }

func (s *serveInvoker) issue(q *request) func() outcome {
	ti := s.inst[q.class]
	if ti == nil {
		te := s.reg[q.class]
		var err error
		if ti, err = faas.Provision(te.Workload, te.Iso); err != nil {
			o := outcome{status: "provision: " + err.Error()}
			return func() outcome { return o }
		}
		s.inst[q.class] = ti
	}
	sent := time.Now()
	body, res := ti.ServeBody(q.body, 0)
	o := outcome{status: host.StatusOK.String(), body: body, sent: sent, done: time.Now()}
	if res.Reason != cpu.StopHalt {
		o.status = host.StatusFault.String()
		// A faulted instance goes back through verified reset, as the
		// host's quarantine does, before it serves again.
		ti.Inst.Reset()
		if ti.Env != nil {
			ti.Env.ResetSession()
		}
	}
	return func() outcome { return o }
}

// walk replays a seeded sample of the workload's requests single-threaded
// through each layer's entry point — router, shard, host, instance — and
// times the layers beneath them directly. routed is the stack whose router
// and first shard the HTTP calls go to; local is an in-process server for
// the host call. Every response is checked like any other.
func (r *runner) walk(def *workloadDef, seed int64, routed, local *env, m metrics) error {
	shard := &overHTTP{client: routed.shardClient(), name: "httpfront.Front"}
	defer shard.client.CloseIdle()
	serve := &serveInvoker{reg: httpfront.DefaultRegistry(worldSeed), inst: map[string]*faas.TenantInstance{}}
	type path struct {
		inv  invoker
		sent *uint64
	}
	paths := []path{{routed.inv, &routed.sent}, {shard, &routed.direct}, {local.inv, &local.sent}, {serve, new(uint64)}}

	st := newStream(def, seed^0x3c6ef372, "walk")
	sample := make([]request, walkSample)
	for i := range sample {
		// Every path serves the request under its class name, so each
		// path holds one warm instance per class and the paths differ
		// only by the layers they cross.
		sample[i] = st.next()
		sample[i].name = sample[i].class
	}
	var took [][]float64 // per timed request: each path's call duration
	for pass := 0; pass <= walkPasses; pass++ {
		for i := range sample {
			q := sample[i]
			q.id = fmt.Sprintf("walk%d-%d", pass, i)
			start := time.Now()
			var kids [][2]time.Time
			for _, p := range paths {
				r.ck.note(&q)
				o := p.inv.issue(&q)()
				*p.sent++
				r.ck.check(&q, o)
				kids = append(kids, [2]time.Time{o.sent, o.done})
			}
			if pass == 0 {
				continue // warm pass: every path's instance provisioned
			}
			root := r.tr.add("walk.request", q.id, 0, start, time.Now())
			var d []float64
			for k, p := range paths {
				r.tr.add(p.inv.layer(), q.id, root, kids[k][0], kids[k][1])
				d = append(d, float64(kids[k][1].Sub(kids[k][0])))
			}
			took = append(took, d)
		}
	}
	// A layer's cost is the median over the walked requests of the time a
	// request spends in the path through it minus the time the same
	// request spends in the path just beneath it.
	var hop, front, hostOver []float64
	for _, d := range took {
		hop = append(hop, d[0]-d[1])
		front = append(front, d[1]-d[2])
		hostOver = append(hostOver, d[2]-d[3])
	}
	m.set("cluster.hop_us", median(hop)/1e3, "us")
	m.set("httpfront.overhead_us", median(front)/1e3, "us")
	m.set("host.overhead_us", median(hostOver)/1e3, "us")

	if err := r.walkTenants(m); err != nil {
		return err
	}
	if err := r.walkProvision(m); err != nil {
		return err
	}
	if err := r.walkReset(m); err != nil {
		return err
	}

	var statsz []float64
	for i := 0; i < scrapeReps; i++ {
		t := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := shard.client.Statsz(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("shard statsz: %w", err)
		}
		statsz = append(statsz, float64(time.Since(t)))
	}
	m.set("httpfront.statsz_ms", median(statsz)/1e6, "ms")

	cl := routed.cl.Router.StatszDoc().Cluster
	if cl.RoutingHits+cl.RoutingMisses == 0 {
		return fmt.Errorf("router made no placements")
	}
	m.set("cluster.routing_hit_rate", cl.RoutingHitRate, "ratio")
	m.set("cluster.hedges", float64(cl.Hedges), "count")
	m.set("cluster.retries", float64(cl.Retries), "count")
	m.set("cluster.transport_errors", float64(cl.TransportErrors), "count")
	return nil
}

// walkTenants serves every registry tenant's variants on a fresh instance:
// the first pass measures simulated time per request (a pure function of
// the requests, so any change is a change of semantics), the timed passes
// measure warm ServeRequest wall time and the tier and hostcall counters.
func (r *runner) walkTenants(m metrics) error {
	reg := httpfront.DefaultRegistry(worldSeed)
	var instrs, tiered, promoted uint64
	var wall time.Duration
	var calls, bytes, hcReqs uint64
	for _, name := range healthyNames() {
		te := reg[name]
		ti, err := faas.Provision(te.Workload, te.Iso)
		if err != nil {
			return err
		}
		clock := ti.RT.M.Kern.Clock
		t0 := clock.Now()
		var outs [][]byte
		for v := 0; v < variants; v++ {
			body, res := ti.ServeRequest(v, 0)
			if res.Reason != cpu.StopHalt {
				return fmt.Errorf("%s variant %d: stop %v", name, v, res.Reason)
			}
			outs = append(outs, body)
		}
		m.set("sim.ns_per_req."+name, float64(clock.Now()-t0)/variants, "ns")
		promoted += ti.TierCountersDelta().PromotedBlocks
		if ti.Env != nil {
			ti.Env.TakeCounters()
		}
		var lat []float64
		for pass := 0; pass < tierPasses; pass++ {
			for v := 0; v < variants; v++ {
				t := time.Now()
				body, res := ti.ServeRequest(v, 0)
				d := time.Since(t)
				if res.Reason != cpu.StopHalt {
					return fmt.Errorf("%s variant %d: stop %v", name, v, res.Reason)
				}
				outs = append(outs, body)
				r.tr.add("faas.ServeRequest", fmt.Sprintf("tier-%s-%d-%d", name, pass, v), 0, t, t.Add(d))
				lat = append(lat, float64(d))
				wall += d
			}
		}
		m.set("tier.serve_us."+name, median(lat)/1e3, "us")
		for i, body := range outs {
			v := i % variants
			q := request{id: fmt.Sprintf("tier-%s-%d", name, i), name: name, class: name,
				seq: uint64(i), variant: v, body: te.Workload.MakeRequest(v)}
			r.ck.note(&q)
			r.ck.check(&q, outcome{status: host.StatusOK.String(), body: body})
		}
		tc := ti.TierCountersDelta()
		instrs += tc.TieredInstrs + tc.InterpInstrs
		tiered += tc.TieredInstrs
		promoted += tc.PromotedBlocks
		if ti.Env != nil {
			c, bi, bo, _ := ti.Env.TakeCounters()
			calls += c
			bytes += bi + bo
			hcReqs += tierPasses * variants
		}
	}
	m.set("tier.instrs_per_s", float64(instrs)/wall.Seconds(), "instr/s")
	m.set("tier.tiered_share", float64(tiered)/float64(instrs), "ratio")
	m.set("tier.promoted_blocks", float64(promoted), "count")
	m.set("hostcall.calls_per_req", float64(calls)/float64(hcReqs), "count")
	m.set("hostcall.bytes_per_req", float64(bytes)/float64(hcReqs), "B")
	return nil
}

// walkProvision times image provisioning against a fresh code cache
// (compile, verify, facts, lower), instance provisioning against the
// shared cache, and the baseline heap hash of a fresh instance, each as
// the mean over the registry tenants, median over reps.
func (r *runner) walkProvision(m metrics) error {
	reg := httpfront.DefaultRegistry(worldSeed)
	names := healthyNames()
	var image, inst, hash []float64
	for rep := 0; rep < provisionRep; rep++ {
		var ti, tn, th time.Duration
		for _, name := range names {
			te := reg[name]
			t := time.Now()
			if _, err := faas.ProvisionShared(te.Workload, te.Iso, sandbox.NewCodeCache()); err != nil {
				return err
			}
			ti += time.Since(t)
			t = time.Now()
			x, err := faas.Provision(te.Workload, te.Iso)
			if err != nil {
				return err
			}
			tn += time.Since(t)
			t = time.Now()
			x.Inst.HeapHash()
			th += time.Since(t)
		}
		n := float64(len(names))
		image = append(image, float64(ti)/n)
		inst = append(inst, float64(tn)/n)
		hash = append(hash, float64(th)/n)
	}
	m.set("faas.provision_image_us", median(image)/1e3, "us")
	m.set("faas.provision_instance_us", median(inst)/1e3, "us")
	m.set("sandbox.heap_hash_us", median(hash)/1e3, "us")
	return nil
}

// walkReset faults the trap tenant's instance and times the host's
// quarantine steps: Reset alone, and Reset plus the HeapHash that verifies
// it restored the provisioning-time heap.
func (r *runner) walkReset(m metrics) error {
	te := httpfront.DefaultRegistry(worldSeed)[trapTenant]
	ti, err := faas.Provision(te.Workload, te.Iso)
	if err != nil {
		return err
	}
	base := ti.Inst.HeapHash()
	var reset, verified []float64
	for i := 0; i < resetReps; i++ {
		if _, res := ti.ServeBody(trapBody, 0); res.Reason == cpu.StopHalt {
			return fmt.Errorf("trap tenant did not fault")
		}
		t := time.Now()
		ti.Inst.Reset()
		d := time.Since(t)
		h := ti.Inst.HeapHash()
		v := time.Since(t)
		if h != base {
			return fmt.Errorf("verified reset: heap hash %x after reset, %x at provisioning", h, base)
		}
		reset = append(reset, float64(d))
		verified = append(verified, float64(v))
	}
	m.set("sandbox.reset_us", median(reset)/1e3, "us")
	m.set("sandbox.verified_reset_us", median(verified)/1e3, "us")
	return nil
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }
