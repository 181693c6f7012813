package host

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfi/internal/faas"
	"hfi/internal/sfi"
	"hfi/internal/stats"
	"hfi/internal/workloads"
)

// Class is one traffic class of a synthetic mix: a tenant under an
// isolation configuration, drawn with probability Weight / sum(Weights).
type Class struct {
	Weight int
	Tenant workloads.Tenant
	Iso    faas.Config
}

// DefaultMix is the standard mixed-tenant traffic: the four scaled-down
// Table 1 tenants spread across isolation configurations (so pool keying by
// (tenant, config) is actually exercised), weighted so the deliberately
// heavy image-classification tenant stays rare, as tail-heavy tenants are
// in production mixes.
func DefaultMix() []Class {
	light := workloads.FaaSTenantsLight()
	return []Class{
		{Weight: 8, Tenant: light[3], Iso: faas.StockLucet()},                                    // templated-html
		{Weight: 4, Tenant: light[0], Iso: faas.LucetHFI()},                                      // xml-to-json
		{Weight: 3, Tenant: light[2], Iso: faas.Config{Name: "HFI", Scheme: sfi.HFI}},            // check-sha256
		{Weight: 1, Tenant: light[1], Iso: faas.Config{Name: "Bounds", Scheme: sfi.BoundsCheck}}, // image-classification
	}
}

// BuildSchedule deterministically expands a mix into `total` requests:
// classes are drawn weight-proportionally from a seeded PRNG and each class
// keeps its own request sequence numbers. The same (mix, total, seed)
// always yields the same request set, which is what makes concurrent-run
// checksums comparable against single-threaded reference runs.
func BuildSchedule(mix []Class, total int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	wsum := 0
	for _, c := range mix {
		wsum += c.Weight
	}
	seqs := make([]uint64, len(mix))
	reqs := make([]Request, total)
	for i := range reqs {
		w := rng.Intn(wsum)
		k := 0
		for w >= mix[k].Weight {
			w -= mix[k].Weight
			k++
		}
		reqs[i] = NewRequest(mix[k].Tenant.Name, seqs[k],
			WithWorkload(mix[k].Tenant), WithIso(mix[k].Iso))
		seqs[k]++
	}
	return reqs
}

// ReferenceChecksum serves the exact request set of BuildSchedule(mix,
// total, seed) single-threaded through the faas warm-instance path and
// returns the aggregate response checksum — the ground truth the concurrent
// host must match (engine-equivalence invariant).
func ReferenceChecksum(mix []Class, total int, seed int64) (uint64, error) {
	reqs := BuildSchedule(mix, total, seed)
	instances := make(map[poolKey]*faas.TenantInstance)
	var sum uint64
	for _, r := range reqs {
		key := poolKey{r.Tenant.Name, r.Iso}
		ti := instances[key]
		if ti == nil {
			var err error
			ti, err = faas.Provision(r.Tenant, r.Iso)
			if err != nil {
				return 0, err
			}
			instances[key] = ti
		}
		body, _ := ti.ServeRequest(int(r.Seq), 0)
		sum ^= faas.HashResponse(int(r.Seq), body)
	}
	return sum, nil
}

// LoadResult aggregates one load-generator run.
type LoadResult struct {
	// Summary is the server's view for RunClosedLoop and the generator's
	// own view (latency timed on the generator's clock) for RunOpenLoop.
	Summary stats.ServeSummary
	// Checksum is the XOR of faas.HashResponse over all StatusOK
	// responses — completion-order independent. It is comparable with
	// ReferenceChecksum only when the target serves each request's own
	// Seq, as the in-process server does.
	Checksum uint64
	Elapsed  time.Duration
}

// RunClosedLoop drives the server with `clients` concurrent closed-loop
// clients: each client issues its next request as soon as the previous one
// completes, pulling from a shared deterministic schedule of `total`
// requests. This is the throughput-oriented generator (offered load tracks
// capacity; nothing sheds under PolicyBlock).
func RunClosedLoop(s *Server, mix []Class, clients, total int, seed int64) LoadResult {
	reqs := BuildSchedule(mix, total, seed)
	var next atomic.Int64
	sums := make(chan uint64, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local uint64
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					break
				}
				r := s.Do(context.Background(), reqs[i])
				if r.Status == StatusOK {
					local ^= faas.HashResponse(int(reqs[i].Seq), r.Body)
				}
			}
			sums <- local
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(sums)
	var sum uint64
	for v := range sums {
		sum ^= v
	}
	return LoadResult{Summary: s.Snapshot(elapsed), Checksum: sum, Elapsed: elapsed}
}

// Invoke serves one request and folds its response into an outcome class,
// returning the response body. A non-nil error means the request has no
// outcome (a transport failure, a closed server, a status outside the
// outcome table) and fails the run. There are two: the in-process
// (*Server).Invoke, and httpfront's Client.InvokeRequest, which reaches a
// shard or a router alike.
type Invoke func(ctx context.Context, r Request) (stats.Outcome, []byte, error)

// statusOutcomes folds every recorded Status into its outcome class;
// StatusClosed is never recorded and has none.
var statusOutcomes = map[Status]stats.Outcome{
	StatusOK: stats.OutcomeOK, StatusTimeout: stats.OutcomeTimeout,
	StatusShed: stats.OutcomeShed, StatusFault: stats.OutcomeFault,
	StatusRejected: stats.OutcomeRejected, StatusCanceled: stats.OutcomeCanceled,
}

// Invoke is Do as an Invoke.
func (s *Server) Invoke(ctx context.Context, r Request) (stats.Outcome, []byte, error) {
	resp := s.Do(ctx, r)
	o, ok := statusOutcomes[resp.Status]
	if !ok {
		return 0, nil, fmt.Errorf("%s: %v: %v", r.Tenant.Name, resp.Status, resp.Err)
	}
	return o, resp.Body, nil
}

// arrivals is the open-loop schedule, a pure function of its arguments:
// BuildSchedule's seeded weighted draw, each request due (as an offset
// from the run's start) after exponentially distributed gaps for `rate`
// requests per second, drawn from a second stream seeded seed^0x5deece66d.
func arrivals(mix []Class, rate float64, total int, seed int64) ([]Request, []time.Duration) {
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	due := make([]time.Duration, total)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate * 1e9
		due[i] = time.Duration(t)
	}
	return BuildSchedule(mix, total, seed), due
}

// RunOpenLoop drives invoke with a Poisson open-loop arrival process at
// `rate` requests per second, so the offered load is independent of
// service capacity — the generator that actually exercises queueing and
// shedding. Each request runs on its own goroutine at its due time and is
// timed on the generator's clock, from the call to its outcome. The
// arrival schedule is deterministic for a given seed; which requests shed
// under overload is not, by nature. The run fails on the first request
// without an outcome, and unless offered == Σ outcomes.
func RunOpenLoop(invoke Invoke, mix []Class, rate float64, total int, seed int64) (LoadResult, error) {
	rec := stats.NewRecorder()
	var (
		mu       sync.Mutex
		sum      uint64
		firstErr error
		wg       sync.WaitGroup
	)
	reqs, due := arrivals(mix, rate, total, seed)
	ctx := context.Background()
	t0 := time.Now()
	for i, req := range reqs {
		if d := time.Until(t0.Add(due[i])); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r Request) {
			defer wg.Done()
			start := time.Now()
			o, body, err := invoke(ctx, r)
			lat := float64(time.Since(start).Nanoseconds())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			rec.Record(o, lat)
			if o == stats.OutcomeOK {
				sum ^= faas.HashResponse(int(r.Seq), body)
			}
		}(req)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	res := LoadResult{Summary: rec.Snapshot(float64(elapsed.Nanoseconds())), Checksum: sum, Elapsed: elapsed}
	if firstErr != nil {
		return res, firstErr
	}
	if n := res.Summary.Admitted(); n != uint64(total) {
		return res, fmt.Errorf("open loop: %d outcomes for %d offered", n, total)
	}
	return res, nil
}

// SweepPoint is one offered-load level of an open-loop rate sweep — a row
// of the hockey-stick table — as the generator saw it. Latency
// percentiles cover executed requests (ok + timeout + fault); shed and
// canceled requests never ran. The router fields are set by cluster
// sweeps only, from the router's view once the point has settled.
type SweepPoint struct {
	RateRPS     float64 `json:"rate_rps"`
	Offered     int     `json:"offered"`
	OK          uint64  `json:"ok"`
	Timeouts    uint64  `json:"timeouts"`
	Faults      uint64  `json:"faults"`
	Shed        uint64  `json:"shed"`
	Rejected    uint64  `json:"rejected"`
	Canceled    uint64  `json:"canceled"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	AchievedRPS float64 `json:"achieved_rps"`
	ShedRate    float64 `json:"shed_rate"`

	Shards          int     `json:"shards,omitempty"`
	RoutingHitRate  float64 `json:"routing_hit_rate,omitempty"`
	Hedges          uint64  `json:"hedges,omitempty"`
	Retries         uint64  `json:"retries,omitempty"`
	Migrations      uint64  `json:"migrations,omitempty"`
	TransportErrors uint64  `json:"transport_errors,omitempty"`
}

// Target is the stack under test at one sweep point, built fresh per
// offered rate so queue, pool, and latency state never bleed between
// points.
type Target struct {
	Invoke Invoke
	// Check, when set, runs once the point's load has completed and
	// before Close: it may stamp the stack's own view onto the point or
	// reject it.
	Check func(*SweepPoint) error
	Close func()
}

// RunSweep produces the open-loop latency-vs-offered-load curve at one
// scale (workers per host, or shards): one RunOpenLoop point per rate,
// each against a fresh Target from launch. This is the measurement
// closed-loop generators cannot make: a closed loop's offered load
// collapses to service capacity the moment the server slows down, hiding
// exactly the queueing delay the p99 hockey stick exists to show.
func RunSweep(scale int, launch func() (Target, error), mix []Class, rates []float64, perRate int, seed int64) (SweepRun, error) {
	run := SweepRun{Scale: scale}
	for _, rate := range rates {
		pt, err := sweepPoint(launch, mix, rate, perRate, seed)
		if err != nil {
			return run, fmt.Errorf("sweep @ %.0f req/s: %w", rate, err)
		}
		run.Points = append(run.Points, pt)
	}
	return run, nil
}

func sweepPoint(launch func() (Target, error), mix []Class, rate float64, perRate int, seed int64) (SweepPoint, error) {
	t, err := launch()
	if err != nil {
		return SweepPoint{}, err
	}
	defer t.Close()
	res, err := RunOpenLoop(t.Invoke, mix, rate, perRate, seed)
	if err != nil {
		return SweepPoint{}, err
	}
	sum := res.Summary
	pt := SweepPoint{
		RateRPS: rate, Offered: perRate,
		OK: sum.OK, Timeouts: sum.Timeouts, Faults: sum.Faults,
		Shed: sum.Shed, Rejected: sum.Rejected, Canceled: sum.Canceled,
		P50Ns: sum.P50Ns, P99Ns: sum.P99Ns, P999Ns: sum.P999Ns,
		AchievedRPS: sum.ThroughputRPS, ShedRate: sum.ShedRate,
	}
	if t.Check != nil {
		err = t.Check(&pt)
	}
	return pt, err
}

// SweepRun is one scale's curve.
type SweepRun struct {
	Scale  int          `json:"scale"`
	Points []SweepPoint `json:"points"`
}

// SweepReport is the sweep document of every serving tier — hfiserve
// -mode sweep, hfihttpd -selfdrive, hfirouter -selfdrive — and the schema
// of the checked-in baselines.
type SweepReport struct {
	Seed   int64  `json:"seed"`
	Mode   string `json:"mode"`
	Policy string `json:"policy"`
	// Unit names what SweepRun.Scale counts: "workers" or "shards".
	Unit    string     `json:"scale_unit"`
	PerRate int        `json:"requests_per_rate"`
	Sweeps  []SweepRun `json:"sweeps"`
}

// Print writes the report as indented JSON, or as one hockey-stick table
// per scale with note appended.
func (r SweepReport) Print(w io.Writer, asJSON bool, note string) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	routed := r.Unit == "shards"
	for _, run := range r.Sweeps {
		tb := &stats.Table{
			Title: fmt.Sprintf("open-loop %s, %d %s (%d requests/rate, policy %s)",
				r.Mode, run.Scale, r.Unit, r.PerRate, r.Policy),
			Columns: []string{"rate req/s", "achieved", "ok", "shed%", "p50", "p99", "p99.9"},
		}
		if routed {
			tb.Columns = append(tb.Columns, "hit%")
		}
		for _, pt := range run.Points {
			row := []string{
				fmt.Sprintf("%.0f", pt.RateRPS),
				fmt.Sprintf("%.0f", pt.AchievedRPS),
				strconv.FormatUint(pt.OK, 10),
				fmt.Sprintf("%.1f", pt.ShedRate*100),
				stats.Ns(pt.P50Ns), stats.Ns(pt.P99Ns), stats.Ns(pt.P999Ns),
			}
			if routed {
				row = append(row, fmt.Sprintf("%.1f", pt.RoutingHitRate*100))
			}
			tb.AddRow(row...)
		}
		tb.AddNote("%s", note)
		if _, err := fmt.Fprintln(w, tb); err != nil {
			return err
		}
	}
	return nil
}

// ParseRates parses a -rates list of offered rates (req/s) into
// ascending order.
func ParseRates(list string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	sort.Float64s(rates)
	return rates, nil
}

// CheckBaseline gates rep against the baseline report at path, point by
// point under the key scale@rate. It fails when the baseline is of
// another mode, when a point served nothing, when a point's p99 exceeds
// tol× the baseline's (wall-clock latency on shared hardware is noisy; a
// real regression shows up as a multiple, not a percentage), and when
// the baseline has no entry for a point — an ungated point is a hole in
// the gate, not a pass. Conservation is enforced per point by
// RunOpenLoop before a report exists.
func CheckBaseline(rep SweepReport, path string, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base SweepReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Mode != rep.Mode {
		return fmt.Errorf("baseline %s is a %q report, not %q", path, base.Mode, rep.Mode)
	}
	ref := make(map[string]SweepPoint)
	for _, run := range base.Sweeps {
		for _, pt := range run.Points {
			ref[sweepKey(run.Scale, pt.RateRPS)] = pt
		}
	}
	for _, run := range rep.Sweeps {
		for _, pt := range run.Points {
			key := sweepKey(run.Scale, pt.RateRPS)
			want, ok := ref[key]
			switch {
			case !ok:
				return fmt.Errorf("baseline %s: no entry for %s", path, key)
			case pt.OK == 0:
				return fmt.Errorf("%s: zero successes", key)
			case want.P99Ns > 0 && pt.P99Ns > want.P99Ns*tol:
				return fmt.Errorf("%s: p99 %s exceeds %.1fx baseline %s",
					key, stats.Ns(pt.P99Ns), tol, stats.Ns(want.P99Ns))
			}
		}
	}
	return nil
}

// sweepKey names a sweep point in the baseline: scale@rate.
func sweepKey(scale int, rate float64) string { return fmt.Sprintf("%d@%.0f", scale, rate) }
