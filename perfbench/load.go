package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"hfi/internal/host"
	"hfi/internal/httpfront"
	"hfi/internal/stats"
)

// invoker issues one request into the top layer a workload serves from.
type invoker interface {
	// issue sends q and returns a function that waits for its outcome.
	// HTTP invokers return once the reply is in, so a sender holding a
	// connection is busy until then; the in-process invoker returns after
	// admission. Either way the outcome's done time is when the reply
	// reached the benchmark, read on the benchmark's clock.
	issue(q *request) func() outcome
	// layer names the entry point, for spans.
	layer() string
}

// inProcess calls host.Server.Submit directly.
type inProcess struct {
	srv *host.Server
	reg map[string]httpfront.Tenant
}

func (p *inProcess) layer() string { return "host.Server.Submit" }

func (p *inProcess) issue(q *request) func() outcome {
	te := p.reg[q.class]
	req := host.NewRequest(q.name, q.seq,
		host.WithWorkload(te.Workload), host.WithIso(te.Iso), host.WithBody(q.body))
	sent := time.Now()
	ch := p.srv.Submit(context.Background(), req)
	// One goroutine per request in flight takes the reply as soon as the
	// server delivers it and stamps it then, so everything the server does
	// before delivering (stats, breaker, the send itself) counts, and the
	// stamp does not wait for an in-order collector to get here.
	got := make(chan outcome, 1)
	go func() {
		r := <-ch
		got <- outcome{status: r.Status.String(), body: r.Body, sent: sent, done: time.Now()}
	}()
	return func() outcome { return <-got }
}

// overHTTP calls httpfront.Client.Invoke against a router or a shard. The
// tenant path is the registry name (the class), which both tiers route.
type overHTTP struct {
	client *httpfront.Client
	name   string
}

func (h *overHTTP) layer() string { return h.name }

func (h *overHTTP) issue(q *request) func() outcome {
	sent := time.Now()
	res, err := h.client.Invoke(context.Background(), q.class, q.body, q.id)
	o := outcome{sent: sent, done: time.Now()}
	switch {
	case err != nil:
		o.status = "transport"
	default:
		o.status = httpStatus(res.Code)
		o.id = res.RequestID
		if res.Code == http.StatusOK {
			o.body = res.Body
		}
	}
	return func() outcome { return o }
}

// httpStatus names a response code by the host.Status it documents
// (httpfront.StatusCode), so both paths share one outcome vocabulary.
func httpStatus(code int) string {
	for st := host.StatusOK; st <= host.StatusCanceled; st++ {
		if httpfront.StatusCode(st) == code {
			return st.String()
		}
	}
	return fmt.Sprintf("http-%d", code)
}

// newSerialClient is an httpfront client that holds one connection to its
// server, for a caller that sends one request at a time.
func newSerialClient(base string) *httpfront.Client {
	return httpfront.NewClientWith(base, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}})
}

// phase is what one load phase measured. Latencies are in nanoseconds.
type phase struct {
	lat   []float64       // per request: open loop from its due time, closed loop from its send
	lag   []float64       // open loop: how late each request was sent
	first []float64       // latencies of first touches
	okAt  []time.Duration // closed loop: when each correct reply came in before the phase ended, from its start
	sent  int
}

// merge appends q's samples to p, shifting q's completion times by offset.
func (p *phase) merge(q phase, offset time.Duration) {
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.first = append(p.first, q.first...)
	for _, t := range q.okAt {
		p.okAt = append(p.okAt, t+offset)
	}
	p.sent += q.sent
}

// runner carries what every phase of one run shares.
type runner struct {
	ck      *checker
	tr      *tracer // nil: untraced
	workers int     // serving workers: nproc
}

// record judges one outcome and, when tracing, records the request's spans:
// a root from start (its due time or send) to the end of the check, the
// layer call, and the check.
func (r *runner) record(inv invoker, q *request, o outcome, start time.Time) bool {
	cs := time.Now()
	ok := r.ck.check(q, o)
	if r.tr != nil {
		ce := time.Now()
		root := r.tr.add("loadgen.request", q.id, 0, start, ce)
		r.tr.add(inv.layer(), q.id, root, o.sent, o.done)
		r.tr.add("loadgen.check", q.id, root, cs, ce)
	}
	return ok
}

// openLoop sends reqs at their due times from senders goroutines (the
// connection bound) and times each from when it was due, so a stalled
// generator shows up as latency of the requests it delayed. Senders take
// requests in schedule order and each sleeps until its request is due, so
// no hand-off sits between the clock and the send.
func (r *runner) openLoop(e *env, reqs []request) phase {
	inv, senders := e.inv, e.workers
	n := len(reqs)
	p := phase{lat: make([]float64, n), lag: make([]float64, n), sent: n}
	firsts := make([]bool, n)
	type inflight struct {
		i    int
		wait func() outcome
	}
	work := make(chan int, n) // the whole schedule, taken in order
	for i := range reqs {
		work <- i
	}
	close(work)
	pending := make(chan inflight, n) // sized to the schedule: senders never block on it
	t0 := time.Now().Add(2 * time.Millisecond)

	var sw, cw sync.WaitGroup
	for s := 0; s < senders; s++ {
		sw.Add(1)
		go func() {
			defer sw.Done()
			for i := range work {
				q := &reqs[i]
				due := t0.Add(q.due)
				sleepUntil(due)
				p.lag[i] = float64(time.Since(due))
				firsts[i] = e.touch.mark(q.name)
				r.ck.note(q)
				pending <- inflight{i, inv.issue(q)}
			}
		}()
	}
	for c := 0; c < senders; c++ {
		cw.Add(1)
		go func() {
			defer cw.Done()
			for it := range pending {
				q := &reqs[it.i]
				o := it.wait()
				due := t0.Add(q.due)
				p.lat[it.i] = float64(o.done.Sub(due))
				r.record(inv, q, o, due)
			}
		}()
	}
	sw.Wait()
	close(pending)
	cw.Wait()
	e.sent += uint64(n)
	for i := range reqs {
		if firsts[i] {
			p.first = append(p.first, p.lat[i])
		}
	}
	return p
}

// closedLoop runs callers that each send their next request only when the
// previous reply is in, drawing from st until dur has passed.
func (r *runner) closedLoop(e *env, st *stream, dur time.Duration) phase {
	inv, callers := e.inv, e.workers
	// Callers run only when a reply is in, so they need no P of their own
	// (the open loop's generator does): run with Go's default, one P per
	// CPU. In interleaved warm-mix runs the extra P made the closed-loop
	// rate spread more from run to run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.workers))
	var mu sync.Mutex
	var p phase
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur {
				mu.Lock()
				q := st.next()
				mu.Unlock()
				first := e.touch.mark(q.name)
				r.ck.note(&q)
				o := inv.issue(&q)()
				ok := r.record(inv, &q, o, o.sent)
				lat := float64(o.done.Sub(o.sent))
				mu.Lock()
				p.sent++
				p.lat = append(p.lat, lat)
				if at := o.done.Sub(t0); ok && at < dur {
					p.okAt = append(p.okAt, at)
				}
				if first {
					p.first = append(p.first, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	e.sent += uint64(p.sent)
	return p
}

// sequential sends each request alone and waits for it: warm-up and first
// touches, timed from send.
func (r *runner) sequential(e *env, reqs []request) phase {
	inv := e.inv
	var p phase
	for i := range reqs {
		q := &reqs[i]
		first := e.touch.mark(q.name)
		r.ck.note(q)
		o := inv.issue(q)()
		lat := float64(o.done.Sub(o.sent))
		p.sent++
		p.lat = append(p.lat, lat)
		r.record(inv, q, o, o.sent)
		if first {
			p.first = append(p.first, lat)
		}
	}
	e.sent += uint64(p.sent)
	return p
}

// Windowed statistics: a run's figures are medians over consecutive
// windows, so a stall that hits one window (a collection, a neighbour on
// the machine) moves one window's figure, not the run's. Percentiles over
// all of a run's samples pooled, with more samples beyond p99 but no such
// protection, spread more from seed to seed on cold-churn (see README.md).
const (
	maxWindows = 20
	// minWindow keeps at least ten samples beyond each window's p99.
	minWindow = 1000
)

// windowedPercentile splits xs (in send order) into up to maxWindows
// contiguous windows of at least minWindow samples and returns the median
// over the windows of each window's p-th percentile.
func windowedPercentile(xs []float64, p float64) float64 {
	n := min(maxWindows, max(1, len(xs)/minWindow))
	var per []float64
	for w := 0; w < n; w++ {
		per = append(per, stats.Percentile(xs[w*len(xs)/n:(w+1)*len(xs)/n], p))
	}
	return median(per)
}

// windowedRate counts completions at times ts (from phase start) in
// consecutive whole windows of dur/maxWindows and returns the median
// window's rate per second.
func windowedRate(ts []time.Duration, dur time.Duration) float64 {
	width := dur / maxWindows
	counts := make([]float64, maxWindows)
	for _, t := range ts {
		if w := int(t / width); w < maxWindows {
			counts[w]++
		}
	}
	return median(counts) / width.Seconds()
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// is not precise enough for a generator: when the process is otherwise
// idle the runtime waits for timers in epoll, whose timeout has whole
// milliseconds, so sub-millisecond gaps would come out up to 1ms late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d) // nanosleep unavailable: fall back to the runtime timer
		}
	}
}
