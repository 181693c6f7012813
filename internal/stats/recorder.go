package stats

import (
	"sort"
	"sync"
)

// Outcome classifies one request's fate for the serving recorder.
type Outcome uint8

// Request outcomes.
const (
	OutcomeOK      Outcome = iota // served, guest halted normally
	OutcomeTimeout                // fuel budget exhausted (StopLimit)
	OutcomeFault                  // guest faulted or stopped abnormally
	OutcomeShed                   // rejected at admission (backpressure)
	// OutcomeRejected: the tenant's program failed static verification at
	// provisioning. Distinct from shed — a shed request would have been
	// safe to run but lost the capacity race; a rejected one was refused
	// on proof grounds and never touched a sandbox. Load tests key on the
	// distinction to assert no verified-then-escaped program exists.
	OutcomeRejected
	// OutcomeCanceled: the caller's context was cancelled while the request
	// waited in its tenant queue. Like a shed it never executed (no latency
	// sample, no sandbox contact), but the initiative was the client's, not
	// the server's — the HTTP front-end reports these separately from 429s.
	OutcomeCanceled
)

var outcomeNames = [...]string{"ok", "timeout", "fault", "shed", "rejected", "canceled"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome(?)"
}

// Recorder accumulates per-request latencies and outcome counters from many
// goroutines — the measurement sink of the concurrent serving layer
// (internal/host). All methods are safe for concurrent use; Snapshot may be
// called while recording continues.
type Recorder struct {
	mu      sync.Mutex
	all     tally
	tenants map[string]*tally
}

// HostcallCounters aggregates the host-call boundary traffic the serving
// layer harvests from each instance's hostcall.Env after every request.
// Conservation invariant: the global counters are the exact sum of the
// per-tenant ones — nothing crosses the boundary unattributed.
type HostcallCounters struct {
	Calls        uint64 `json:"calls"`
	BytesIn      uint64 `json:"bytes_in"`
	BytesOut     uint64 `json:"bytes_out"`
	QuotaRejects uint64 `json:"quota_rejects"`
}

// Add accumulates o into c.
func (c *HostcallCounters) Add(o HostcallCounters) {
	c.Calls += o.Calls
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
	c.QuotaRejects += o.QuotaRejects
}

// TierCounters aggregates tiered-engine activity the serving layer
// harvests from each instance's engine after every request: blocks
// promoted to fused execution and the retirement split between the two
// tiers. Same conservation invariant as HostcallCounters: the global
// counters are the exact sum of the per-tenant ones.
type TierCounters struct {
	PromotedBlocks uint64 `json:"promoted_blocks"`
	TieredInstrs   uint64 `json:"tiered_instrs"`
	InterpInstrs   uint64 `json:"interp_instrs"`
}

// Add accumulates o into c.
func (c *TierCounters) Add(o TierCounters) {
	c.PromotedBlocks += o.PromotedBlocks
	c.TieredInstrs += o.TieredInstrs
	c.InterpInstrs += o.InterpInstrs
}

// SubstrateCounters aggregates the substrate fault traffic the serving
// layer observes per request: faults injected below the serving seams
// (bit flips, stale translations, clock skew, lowering rot), how many the
// end-of-request audits detected, how many completed recovery
// (quarantine, cache flush, gate invalidation, clock resync), and how
// many were undetected but benign by construction (strikes in cold state
// no consumer reads before it is recycled). Two conservation invariants,
// asserted globally and per tenant:
//
//	Injected == Detected + Benign   (every injection is accounted)
//	Recovered == Detected           (every detection completes recovery)
type SubstrateCounters struct {
	Injected  uint64 `json:"injected"`
	Detected  uint64 `json:"detected"`
	Recovered uint64 `json:"recovered"`
	Benign    uint64 `json:"undetected_benign"`
}

// Add accumulates o into c.
func (c *SubstrateCounters) Add(o SubstrateCounters) {
	c.Injected += o.Injected
	c.Detected += o.Detected
	c.Recovered += o.Recovered
	c.Benign += o.Benign
}

// tally is one attribution scope: the recorder's global view and each
// tenant's slice share it, so every Record* updates both through the one
// attribute path and global == Σ tenants holds by construction.
type tally struct {
	ok, timeouts, faults, shed, rejected, canceled uint64
	hc                                             HostcallCounters
	tc                                             TierCounters
	sc                                             SubstrateCounters
	lats                                           []float64 // wall latencies (ns) of executed requests (ok+timeout+fault)
}

// outcome counts one request; only executed requests keep a latency.
func (t *tally) outcome(o Outcome, latNs float64) {
	switch o {
	case OutcomeOK:
		t.ok++
	case OutcomeTimeout:
		t.timeouts++
	case OutcomeFault:
		t.faults++
	case OutcomeShed:
		t.shed++
		return
	case OutcomeRejected:
		t.rejected++
		return
	case OutcomeCanceled:
		t.canceled++
		return
	default:
		return
	}
	t.lats = append(t.lats, latNs)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{tenants: make(map[string]*tally)} }

// tenantLocked returns name's tally, creating it on first use; nil for the
// empty tenant, which records globally only. Callers hold r.mu.
func (r *Recorder) tenantLocked(name string) *tally {
	if name == "" {
		return nil
	}
	t := r.tenants[name]
	if t == nil {
		if r.tenants == nil {
			r.tenants = make(map[string]*tally)
		}
		t = &tally{}
		r.tenants[name] = t
	}
	return t
}

// attribute applies add to the global tally and to tenant's.
func (r *Recorder) attribute(tenant string, add func(*tally)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add(&r.all)
	if t := r.tenantLocked(tenant); t != nil {
		add(t)
	}
}

// Record adds one request outcome. latNs is the wall-clock latency in
// nanoseconds; it is ignored for shed requests, which never executed.
func (r *Recorder) Record(o Outcome, latNs float64) { r.RecordTenant("", o, latNs) }

// RecordTenant adds one request outcome attributed to a tenant, updating
// both the global view (identical to Record) and the tenant's breakdown.
// The empty tenant records globally only.
func (r *Recorder) RecordTenant(tenant string, o Outcome, latNs float64) {
	r.attribute(tenant, func(t *tally) { t.outcome(o, latNs) })
}

// RecordHostcalls attributes one request's host-call boundary traffic to
// a tenant, updating the global aggregate identically — so the sum over
// TenantSummaries always equals the Snapshot totals (the conservation
// check the HTTP front-end tests assert).
func (r *Recorder) RecordHostcalls(tenant string, hc HostcallCounters) {
	if hc != (HostcallCounters{}) {
		r.attribute(tenant, func(t *tally) { t.hc.Add(hc) })
	}
}

// RecordTier attributes one request's tiered-engine activity to a tenant,
// with the same conservation contract as RecordHostcalls.
func (r *Recorder) RecordTier(tenant string, tc TierCounters) {
	if tc != (TierCounters{}) {
		r.attribute(tenant, func(t *tally) { t.tc.Add(tc) })
	}
}

// RecordSubstrate attributes one request's substrate fault accounting to
// a tenant, with the same conservation contract as RecordHostcalls.
func (r *Recorder) RecordSubstrate(tenant string, sc SubstrateCounters) {
	if sc != (SubstrateCounters{}) {
		r.attribute(tenant, func(t *tally) { t.sc.Add(sc) })
	}
}

// ServeSummary is a point-in-time view of a Recorder.
type ServeSummary struct {
	OK       uint64 `json:"ok"`
	Timeouts uint64 `json:"timeouts"`
	Faults   uint64 `json:"faults"`
	Shed     uint64 `json:"shed"`
	// Rejected counts requests refused because the tenant program failed
	// static verification (never executed, no latency sample).
	Rejected uint64 `json:"rejected"`
	// Canceled counts requests abandoned by their caller while queued
	// (never executed, no latency sample).
	Canceled uint64 `json:"canceled"`

	// Hostcalls aggregates the host-call boundary traffic of every served
	// request: calls, marshalled bytes each way, and quota rejections.
	Hostcalls HostcallCounters `json:"hostcalls"`

	// Tier aggregates tiered-engine activity: block promotions and the
	// tiered-vs-interpreted retirement split.
	Tier TierCounters `json:"tier"`

	// Substrate aggregates substrate chaos accounting: faults injected
	// below the serving seams and their detection/recovery disposition.
	Substrate SubstrateCounters `json:"substrate"`

	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MaxNs  float64 `json:"max_ns"`

	// ThroughputRPS is executed requests per wall second over the elapsed
	// window handed to Snapshot (0 if elapsedNs <= 0).
	ThroughputRPS float64 `json:"throughput_rps"`
	// ShedRate is shed / (executed + shed) — the 429 rate.
	ShedRate float64 `json:"shed_rate"`
}

// Executed counts requests that reached a sandbox (everything but sheds).
func (s ServeSummary) Executed() uint64 { return s.OK + s.Timeouts + s.Faults }

// Admitted counts every accounted outcome.
func (s ServeSummary) Admitted() uint64 { return s.Executed() + s.Shed + s.Rejected + s.Canceled }

// Snapshot summarizes everything recorded so far. elapsedNs is the
// wall-clock window the throughput is computed over.
func (r *Recorder) Snapshot(elapsedNs float64) ServeSummary {
	r.mu.Lock()
	a := &r.all
	lats := append([]float64(nil), a.lats...)
	s := ServeSummary{
		OK: a.ok, Timeouts: a.timeouts, Faults: a.faults,
		Shed: a.shed, Rejected: a.rejected, Canceled: a.canceled,
		Hostcalls: a.hc, Tier: a.tc, Substrate: a.sc,
	}
	r.mu.Unlock()

	if len(lats) > 0 {
		s.MeanNs = Mean(lats)
		s.P50Ns = Percentile(lats, 50)
		s.P99Ns = Percentile(lats, 99)
		s.P999Ns = Percentile(lats, 99.9)
		s.MaxNs = Max(lats)
	}
	if elapsedNs > 0 {
		s.ThroughputRPS = float64(s.Executed()) / (elapsedNs / 1e9)
	}
	if total := s.Executed() + s.Shed; total > 0 {
		s.ShedRate = float64(s.Shed) / float64(total)
	}
	return s
}

// TenantSummary is one tenant's outcome breakdown — the observability the
// fairness and circuit-breaker machinery is judged by.
type TenantSummary struct {
	Tenant   string  `json:"tenant"`
	OK       uint64  `json:"ok"`
	Timeouts uint64  `json:"timeouts"`
	Faults   uint64  `json:"faults"`
	Shed     uint64  `json:"shed"`
	Rejected uint64  `json:"rejected"`
	Canceled uint64  `json:"canceled"`
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`

	// Hostcalls is the tenant's host-call boundary traffic.
	Hostcalls HostcallCounters `json:"hostcalls"`

	// Tier is the tenant's tiered-engine activity.
	Tier TierCounters `json:"tier"`

	// Substrate is the tenant's substrate fault accounting.
	Substrate SubstrateCounters `json:"substrate"`
}

// Executed counts the tenant's requests that reached a sandbox.
func (t TenantSummary) Executed() uint64 { return t.OK + t.Timeouts + t.Faults }

// Admitted counts every accounted outcome for the tenant.
func (t TenantSummary) Admitted() uint64 { return t.Executed() + t.Shed + t.Rejected + t.Canceled }

// TenantSummaries returns the per-tenant breakdowns sorted by tenant name.
// The global view (Snapshot) is unchanged by per-tenant attribution.
func (r *Recorder) TenantSummaries() []TenantSummary {
	r.mu.Lock()
	out := make([]TenantSummary, 0, len(r.tenants))
	for name, ts := range r.tenants {
		t := TenantSummary{
			Tenant: name,
			OK:     ts.ok, Timeouts: ts.timeouts, Faults: ts.faults,
			Shed: ts.shed, Rejected: ts.rejected, Canceled: ts.canceled,
			Hostcalls: ts.hc, Tier: ts.tc, Substrate: ts.sc,
		}
		if len(ts.lats) > 0 {
			lats := append([]float64(nil), ts.lats...)
			t.P50Ns = Percentile(lats, 50)
			t.P99Ns = Percentile(lats, 99)
		}
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Tenant returns one tenant's breakdown (zero value if never recorded).
func (r *Recorder) Tenant(name string) TenantSummary {
	for _, t := range r.TenantSummaries() {
		if t.Tenant == name {
			return t
		}
	}
	return TenantSummary{Tenant: name}
}
