package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"hfi/internal/cpu"
	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/httpfront"
)

// outcome is what one request came back with, on any path.
type outcome struct {
	status string // host.Status name, "transport", or "http-<code>"
	body   []byte
	id     string // echoed request id; empty on in-process paths
	sent   time.Time
	done   time.Time
}

// checkKind is how a tenant's responses are judged.
type checkKind int

const (
	// checkRef: the body depends only on the request body, so it must hash
	// equal to a single-threaded faas reference run of the same request.
	checkRef checkKind = iota
	// checkKV: kv-session answers its running KV counter, which depends on
	// serving order; the order-free invariant is own ≤ counter ≤ every
	// kv-session byte sent so far (lost updates under concurrency only
	// ever lower it).
	checkKV
	// checkFanIn: fan-in-agg answers the sum of four KV slots; the answer
	// is at least the smallest value ever published to its own slot and at
	// most the sum of each slot's largest published value.
	checkFanIn
	// checkMicro: hostcall-micro answers two clock readings whose values
	// depend on instance history but whose difference is fixed by the cost
	// model and the world seed.
	checkMicro
	// checkTrap: the trap tenant must fault.
	checkTrap
)

func kindOf(class string) checkKind {
	switch class {
	case "kv-session":
		return checkKV
	case "fan-in-agg":
		return checkFanIn
	case "hostcall-micro":
		return checkMicro
	case trapTenant:
		return checkTrap
	}
	return checkRef
}

type refKey struct {
	class   string
	variant int
}

// checker judges every response of a run. note runs when a request is
// issued, check when its outcome arrives.
type checker struct {
	microDelta uint64
	// refs holds, per order-independent (tenant, variant), the body of a
	// single-threaded faas reference run. It is filled before the run
	// starts, so checking costs the same however long the run is.
	refs map[refKey][]byte

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	kvSent    uint64
	fanMin    [4]uint64
	fanMax    [4]uint64
	fanSeen   [4]bool
}

// newChecker runs the references: every variant of every
// order-independent tenant, and hostcall-micro once for the clock
// difference it reports.
func newChecker() (*checker, error) {
	reg := httpfront.DefaultRegistry(worldSeed)
	c := &checker{refs: map[refKey][]byte{}}
	for _, name := range healthyNames() {
		kind := kindOf(name)
		if kind != checkRef && kind != checkMicro {
			continue
		}
		te := reg[name]
		ti, err := faas.Provision(te.Workload, te.Iso)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		for v := 0; v < variants; v++ {
			body, res := ti.ServeRequest(v, 0)
			if res.Reason != cpu.StopHalt {
				return nil, fmt.Errorf("reference %s variant %d: stop %v", name, v, res.Reason)
			}
			if kind == checkMicro {
				if len(body) != 16 {
					return nil, fmt.Errorf("hostcall-micro reference: %d bytes", len(body))
				}
				c.microDelta = binary.LittleEndian.Uint64(body[8:]) - binary.LittleEndian.Uint64(body)
				break
			}
			c.refs[refKey{name, v}] = body
		}
	}
	return c, nil
}

func byteSum(b []byte) uint64 {
	var s uint64
	for _, c := range b {
		s += uint64(c)
	}
	return s
}

// note records a request as sent. It must run before the request can be
// served, so the invariant bounds already include it.
func (c *checker) note(q *request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch kindOf(q.class) {
	case checkKV:
		c.kvSent += byteSum(q.body)
	case checkFanIn:
		slot, s := q.body[0]&3, byteSum(q.body)
		if !c.fanSeen[slot] || s < c.fanMin[slot] {
			c.fanMin[slot] = s
		}
		if !c.fanSeen[slot] || s > c.fanMax[slot] {
			c.fanMax[slot] = s
		}
		c.fanSeen[slot] = true
	}
}

func (c *checker) fail(q *request, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf("%s %s seq %d: ", q.id, q.name, q.seq)+fmt.Sprintf(format, args...))
	}
	return false
}

// check judges one outcome; false means the outcome was wrong.
func (c *checker) check(q *request, o outcome) bool {
	kind := kindOf(q.class)
	want := host.StatusOK.String()
	if kind == checkTrap {
		want = host.StatusFault.String()
	}
	if o.status != want {
		return c.fail(q, "status %s, want %s", o.status, want)
	}
	if o.id != "" && o.id != q.id {
		return c.fail(q, "echoed request id %q", o.id)
	}
	switch kind {
	case checkRef:
		// As host.ReferenceChecksum compares a whole schedule.
		want := c.refs[refKey{q.class, q.variant}]
		if faas.HashResponse(int(q.seq), o.body) != faas.HashResponse(int(q.seq), want) {
			return c.fail(q, "body differs from the single-threaded reference (variant %d)", q.variant)
		}
	case checkKV:
		if len(o.body) != 8 {
			return c.fail(q, "kv-session body %d bytes", len(o.body))
		}
		v := binary.LittleEndian.Uint64(o.body)
		c.mu.Lock()
		hi := c.kvSent
		c.mu.Unlock()
		if own := byteSum(q.body); v < own || v > hi {
			return c.fail(q, "kv-session counter %d outside [%d, %d]", v, own, hi)
		}
	case checkFanIn:
		if len(o.body) != 8 {
			return c.fail(q, "fan-in-agg body %d bytes", len(o.body))
		}
		v := binary.LittleEndian.Uint64(o.body)
		c.mu.Lock()
		lo := c.fanMin[q.body[0]&3]
		var hi uint64
		for s := range c.fanMax {
			hi += c.fanMax[s]
		}
		c.mu.Unlock()
		if v < lo || v > hi {
			return c.fail(q, "fan-in-agg total %d outside [%d, %d]", v, lo, hi)
		}
	case checkMicro:
		if len(o.body) != 16 {
			return c.fail(q, "hostcall-micro body %d bytes", len(o.body))
		}
		if d := binary.LittleEndian.Uint64(o.body[8:]) - binary.LittleEndian.Uint64(o.body); d != c.microDelta {
			return c.fail(q, "hostcall-micro clock difference %d, want %d", d, c.microDelta)
		}
	case checkTrap:
		if len(o.body) != 0 {
			return c.fail(q, "trap returned %d body bytes", len(o.body))
		}
	}
	return true
}
