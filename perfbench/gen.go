package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hfi/internal/host"
	"hfi/internal/httpfront"
)

// worldSeed seeds the hostcall world of every in-process registry and of
// every shard (cluster.Launch's default), so hostcall-micro's clock offset
// is the same wherever a request lands.
const worldSeed = 1

// variants is the number of distinct request bodies per tenant. Bodies are
// MakeRequest(variant), so the single-threaded reference needs at most
// variants runs per tenant however long the benchmark runs.
const variants = 32

// trapTenant is the registry tenant that faults on any non-empty body.
const trapTenant = "faulty"

// trapBody is the body every trap request carries.
var trapBody = []byte("x")

// tenantSpec is one name the generator can address: the request name
// (the host pool key) and the registry tenant whose workload and isolation
// configuration serve it (the reference and HTTP routing key).
type tenantSpec struct {
	name  string
	class string
}

// workloadDef is one traffic mix: which names, how they are drawn, and the
// open-loop rate. Everything here is fixed per workload; the seed only
// picks the draws, so per-seed runs differ in order, never in mix.
type workloadDef struct {
	name    string
	rate    float64 // open-loop offered load, req/s
	tenants []tenantSpec
	// weights draws tenants proportionally; nil draws by Zipf rank
	// (tenant i is rank i) with exponent zipfS.
	weights []int
	zipfS   float64
	// trapShare is the fraction of requests sent to the trap tenant,
	// which is then the last entry of tenants.
	trapShare float64
	// poolCap bounds each worker's warm pool (0 = unbounded).
	poolCap int
}

// healthyNames is the registry minus the trap tenant, sorted: the four
// DefaultMix classes and the four hostcall tenants.
func healthyNames() []string {
	return httpfront.RegistryNames(httpfront.DefaultRegistry(worldSeed))
}

// churnNames is the cold-churn working set size; churnCap is the per-worker
// pool bound well below it. With these about two requests in three start
// cold, so the latency median sits inside the cold-start mode rather than
// on the edge between it and the warm-hit mode, where it would jump
// between the two from run to run.
const (
	churnNames = 256
	churnCap   = 8
)

func workloadByName(name string) (workloadDef, error) {
	switch name {
	case "warm-mix":
		// DefaultMix at its weights (8:4:3:1) plus the four hostcall
		// tenants at 3 each: 28 slots. Sorted by median latency the light
		// hostcall tenants fill the first 12/28 of the requests, so p50
		// falls among xml-to-json's 4/28, p90 among the slowest of
		// templated-html's 8/28 and p99 among image-classification's 1/28.
		// A percentile on the edge between two tenants would jump between
		// them from run to run. The rate is about a fifth of the closed-loop peak. At 500
		// req/s the CPUs idled between requests and each request woke an
		// idle CPU; at 2000 both workers were often busy at once, so the
		// generator, which shares their CPUs, sent late. Either way p90
		// and p99 followed the state of the machine from run to run more
		// than they do at 1000.
		weight := map[string]int{}
		for _, c := range host.DefaultMix() {
			weight[c.Tenant.Name] = c.Weight
		}
		d := workloadDef{name: name, rate: 1000}
		for _, n := range healthyNames() {
			w, ok := weight[n]
			if !ok {
				w = 3
			}
			d.tenants = append(d.tenants, tenantSpec{name: n, class: n})
			d.weights = append(d.weights, w)
		}
		return d, nil
	case "cold-churn":
		// churnNames names, each bound to one DefaultMix class by a fixed
		// pattern that follows the class weights (8:4:3:1), so every name
		// shares one of four cached images and the mix never depends on
		// the seed.
		pattern := weightedPattern(host.DefaultMix())
		// 200 req/s keeps the workers about a third busy, so queueing
		// behind cold starts does not swing the tail from run to run.
		d := workloadDef{name: name, rate: 200, zipfS: 1.1, trapShare: 0.02, poolCap: churnCap}
		for i := 0; i < churnNames; i++ {
			d.tenants = append(d.tenants, tenantSpec{name: fmt.Sprintf("churn-%03d", i), class: pattern[i%len(pattern)]})
		}
		d.tenants = append(d.tenants, tenantSpec{name: trapTenant, class: trapTenant})
		return d, nil
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// weightedPattern spreads the classes over one cycle of sum(weights)
// slots by smooth weighted round robin, so each class holds its weight's
// share of the names and the heavy rare class is not clumped at a hot rank.
func weightedPattern(mix []host.Class) []string {
	total := 0
	for _, c := range mix {
		total += c.Weight
	}
	cur := make([]int, len(mix))
	out := make([]string, 0, total)
	for len(out) < total {
		best := 0
		for i, c := range mix {
			cur[i] += c.Weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, mix[best].Tenant.Name)
	}
	return out
}

// request is one generated invocation. Seq numbers each tenant's stream;
// id is unique across the run, names the tenant so a span dump can be
// read per tenant, and rides the request-id header.
type request struct {
	id      string
	name    string
	class   string
	seq     uint64
	variant int
	body    []byte
	due     time.Duration // open-loop send time from phase start
}

// stream draws requests deterministically from a seed.
type stream struct {
	def    *workloadDef
	tag    string
	rng    *rand.Rand
	zipf   *rand.Zipf
	wsum   int
	seqs   []uint64
	n      int
	bodies map[string][][]byte
}

func newStream(def *workloadDef, seed int64, tag string) *stream {
	s := &stream{def: def, tag: tag, rng: rand.New(rand.NewSource(seed)), seqs: make([]uint64, len(def.tenants))}
	for _, w := range def.weights {
		s.wsum += w
	}
	if def.weights == nil {
		ranks := len(def.tenants)
		if def.trapShare > 0 {
			ranks--
		}
		s.zipf = rand.NewZipf(s.rng, def.zipfS, 1, uint64(ranks-1))
	}
	s.bodies = make(map[string][][]byte)
	reg := httpfront.DefaultRegistry(worldSeed)
	for _, t := range def.tenants {
		if _, ok := s.bodies[t.class]; ok {
			continue
		}
		bs := make([][]byte, variants)
		for v := range bs {
			if t.class == trapTenant {
				bs[v] = trapBody
			} else {
				bs[v] = reg[t.class].Workload.MakeRequest(v)
			}
		}
		s.bodies[t.class] = bs
	}
	return s
}

func (s *stream) next() request {
	var k int
	switch {
	case s.def.trapShare > 0 && s.rng.Float64() < s.def.trapShare:
		k = len(s.def.tenants) - 1
	case s.zipf != nil:
		k = int(s.zipf.Uint64())
	default:
		w := s.rng.Intn(s.wsum)
		for w >= s.def.weights[k] {
			w -= s.def.weights[k]
			k++
		}
	}
	t := s.def.tenants[k]
	v := s.rng.Intn(variants)
	r := request{
		id: fmt.Sprintf("%s-%d-%s", s.tag, s.n, t.name), name: t.name, class: t.class,
		seq: s.seqs[k], variant: v, body: s.bodies[t.class][v],
	}
	s.seqs[k]++
	s.n++
	return r
}

// schedule builds an open-loop phase: Poisson arrivals at def.rate for
// dur, with the request draws from the same seed.
func schedule(def *workloadDef, seed int64, dur time.Duration) []request {
	s := newStream(def, seed, "open")
	gaps := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	var out []request
	t := 0.0
	for {
		t += gaps.ExpFloat64() / def.rate * 1e9
		if time.Duration(t) >= dur {
			return out
		}
		r := s.next()
		r.due = time.Duration(t)
		out = append(out, r)
	}
}

// touchSet records which names a run has sent; mark reports whether a
// name is sent for the first time (a first touch: cold by construction).
type touchSet struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (t *touchSet) mark(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen == nil {
		t.seen = make(map[string]bool)
	}
	if t.seen[name] {
		return false
	}
	t.seen[name] = true
	return true
}
