// Command perfbench is the serving benchmark: it builds one serving stack
// per workload, drives it with its own seeded generator, checks every
// response, and prints one JSON result line. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it reruns the load with spans on and
// walks a sample of requests through each layer for the per-layer metrics.
//
//	perfbench -workload warm-mix -seed 1 -seconds 20 -trace 0
//
// Run it through run.py, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/stats"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if cluster.IsShardProc() {
		os.Exit(cluster.ShardMain())
	}
	workload := flag.String("workload", "warm-mix", "warm-mix | cold-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and layer walk")
	traceFile := flag.String("trace-file", "", "write the traced run's spans here (JSON)")
	flag.Parse()

	def, err := workloadByName(*workload)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ck, err := newChecker()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// One more P than there are serving workers, so the generator is not
	// queued behind busy workers in Go's scheduler; the OS shares the
	// CPUs among them as it would among separate client and server
	// processes.
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers + 1)
	r := &runner{ck: ck, workers: workers}
	m := metrics{}
	dur := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = r.endToEnd(&def, *seed, dur, m)
	} else {
		r.tr = newTracer()
		err = r.traced(&def, *seed, dur, m)
		if err == nil && *traceFile != "" {
			err = r.tr.write(*traceFile)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m}
	if *trace != 0 {
		m.set("error_rate", float64(ck.failed)/float64(ck.attempted), "ratio")
	}
	for _, e := range ck.errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", e)
	}
	out, _ := json.Marshal(res) // plain floats and strings always marshal
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// setupReps is how many times an end-to-end run builds its stack; setup_s
// is their median.
const setupReps = 9

// setup builds the workload's stack and warms it: one request per class,
// sent alone (each a first touch that compiles and verifies its image),
// then, for unbounded pools, concurrent rounds until every worker holds a
// warm instance of every class. The warm-up requests are the same for
// every seed, so set-up time does not vary with the seed.
func (r *runner) setup(def *workloadDef, workers int) (*env, time.Duration, error) {
	t0 := time.Now()
	e := newInProcess(workers, def.poolCap)
	classes := classesOf(def)
	warm := func(tag string, copies int) []request {
		var out []request
		st := newStream(def, 1, tag)
		for c := 0; c < copies; c++ {
			for i, class := range classes {
				out = append(out, request{id: fmt.Sprintf("%s-%d-%d", tag, c, i), name: class, class: class,
					seq: uint64(c), body: st.bodies[class][0]})
			}
		}
		return out
	}
	e.first = append(e.first, r.sequential(e, warm("warm", 1)).first...)
	for round := 0; def.poolCap == 0; round++ {
		if e.srv.Counters().ColdStarts >= uint64(workers*len(classes)) {
			break
		}
		if round == 100 {
			e.close()
			return nil, 0, fmt.Errorf("warm-up: %d cold starts after %d rounds", e.srv.Counters().ColdStarts, round)
		}
		r.openLoop(e, warm(fmt.Sprintf("fill%d", round), workers))
	}
	if err := e.conserve(); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// classesOf lists the registry tenants a workload's names run as, in order.
func classesOf(def *workloadDef) []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range def.tenants {
		if !seen[t.class] {
			seen[t.class] = true
			out = append(out, t.class)
		}
	}
	return out
}

// openShare is the percentage of an end-to-end run spent in the open loop;
// the closed loop takes the rest. The open loop gets the larger share
// because its p99 needs the samples.
const openShare = 75

// cycles is how many times an end-to-end run alternates an open-loop and a
// closed-loop segment. The shared machine's speed changes from one
// minute to the next, and within one; spread over the whole run, each
// phase averages over those changes instead of catching one of them.
const cycles = 5

// endToEnd measures the user-visible metrics with tracing off: set-up
// (median of setupReps builds), then cycles of a fixed-rate open-loop
// segment and a closed-loop segment with one caller per worker.
func (r *runner) endToEnd(def *workloadDef, seed int64, dur time.Duration, m metrics) error {
	workers := r.workers
	var setups, setupFirst []float64
	var e *env
	for k := 0; k < setupReps; k++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		var err error
		if e, d, err = r.setup(def, workers); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		setupFirst = append(setupFirst, e.first...)
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()

	openDur, closedDur := dur*openShare/100, dur*(100-openShare)/100
	reqs := schedule(def, seed, openDur)
	st := newStream(def, seed+1, "closed")
	var open, closed phase
	for c := time.Duration(0); c < cycles; c++ {
		lo, hi := openDur*c/cycles, openDur*(c+1)/cycles
		var seg []request
		for _, q := range reqs {
			if q.due >= lo && q.due < hi {
				q.due -= lo
				seg = append(seg, q)
			}
		}
		open.merge(r.openLoop(e, seg), 0)
		if err := e.conserve(); err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
		closed.merge(r.closedLoop(e, st, closedDur/cycles), closedDur*c/cycles)
		if err := e.conserve(); err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
	}
	// The metric is about the load's first touches: on cold-churn, Zipf
	// names that get a cold instance from a cached image. Only where the
	// load sends none, because set-up already sent every name, do the
	// set-up's first touches stand in; each of those compiles and verifies
	// its image.
	first := append(open.first, closed.first...)
	if len(first) == 0 {
		first = setupFirst
	}
	e.close()
	e = nil

	if len(open.lat) < minWindow {
		return fmt.Errorf("open loop sent %d requests; p99 needs %d", len(open.lat), minWindow)
	}
	m.set("setup_s", median(setups), "s")
	m.set("p50_ms", windowedPercentile(open.lat, 50)/1e6, "ms")
	m.set("p90_ms", windowedPercentile(open.lat, 90)/1e6, "ms")
	m.set("p99_ms", windowedPercentile(open.lat, 99)/1e6, "ms")
	m.set("first_touch_p50_ms", median(first)/1e6, "ms")
	m.set("peak_rps", windowedRate(closed.okAt, closedDur), "req/s")
	m.set("peak_rss_mb", peakRSSMiB(), "MiB")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: open loop %d requests at %.0f req/s in %d windows (lag p99 %.3f ms); closed loop %d requests in %v; %d first touches\n",
		def.name, seed, len(open.lat), def.rate, min(maxWindows, len(open.lat)/minWindow), stats.Percentile(open.lag, 99)/1e6, closed.sent, closedDur, len(first))
	return nil
}

// traced runs the load twice on two fresh stacks built the same way, with
// the same schedule: once untraced, once with spans on. The difference of
// the two p50s is the tracing overhead. It then walks a sample through
// every layer.
func (r *runner) traced(def *workloadDef, seed int64, dur time.Duration, m metrics) error {
	workers := r.workers
	tr := r.tr
	reqs := schedule(def, seed, dur*3/10)

	r.tr = nil
	e, _, err := r.setup(def, workers)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := r.openLoop(e, reqs)
	runtime.ReadMemStats(&ms1)
	err = e.conserve()
	e.close()
	if err != nil {
		return fmt.Errorf("untraced load: %w", err)
	}

	if e, _, err = r.setup(def, workers); err != nil {
		return err
	}
	defer e.close()
	c0 := e.srv.Counters()
	r.tr = tr
	traced := r.openLoop(e, reqs)
	if err := e.conserve(); err != nil {
		return fmt.Errorf("traced load: %w", err)
	}
	c1 := e.srv.Counters()

	m.set("loadgen.lag_p99_ms", stats.Percentile(plain.lag, 99)/1e6, "ms")
	m.set("loadgen.samples", float64(len(plain.lat)), "count")
	m.set("trace.overhead_ms", (median(traced.lat)-median(plain.lat))/1e6, "ms")
	spans := tr.snapshot()
	m.set("loadgen.self_us", median(selfByName(spans, selfTimes(spans), "loadgen.request"))/1e3, "us")
	admitted := c1.Admitted - c0.Admitted
	m.set("host.cold_start_share", float64(c1.ColdStarts-c0.ColdStarts)/float64(admitted), "ratio")
	m.set("host.evictions", float64(c1.Evictions-c0.Evictions), "count")
	m.set("host.quarantined", float64(c1.Quarantined-c0.Quarantined), "count")
	m.set("host.pool_high_water", float64(c1.PoolHighWater), "count")
	m.set("runtime.alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(plain.sent), "KiB")
	m.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")

	// The walk's host call goes to its own single-worker server with an
	// unbounded pool, so every walked request is warm.
	local := inProcessEnv(1, 0)
	defer local.close()
	routed, err := newRouted(workers)
	if err != nil {
		return err
	}
	defer routed.close()
	if err := r.walk(def, seed, routed, local, m); err != nil {
		return err
	}
	if err := routed.conserve(); err != nil {
		return fmt.Errorf("walk cluster: %w", err)
	}
	if err := local.conserve(); err != nil {
		return fmt.Errorf("walk server: %w", err)
	}

	var took []float64
	for i := 0; i < scrapeReps; i++ {
		t := time.Now()
		e.srv.Snapshot(0)
		e.srv.TenantSummaries()
		took = append(took, float64(time.Since(t)))
	}
	m.set("stats.snapshot_ms", median(took)/1e6, "ms")
	return nil
}

// peakRSSMiB is the peak resident memory of this process: the generator,
// the checker and the in-process server.
func peakRSSMiB() float64 {
	var self syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	return float64(self.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
