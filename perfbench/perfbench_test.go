package main

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"

	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/httpfront"
)

func mustWorkload(t *testing.T, name string) workloadDef {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestScheduleDeterministic(t *testing.T) {
	for _, name := range []string{"warm-mix", "cold-churn"} {
		def := mustWorkload(t, name)
		a := schedule(&def, 7, 2*time.Second)
		b := schedule(&def, 7, 2*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", name)
		}
		if want := def.rate * 2; float64(len(a)) < want*0.8 || float64(len(a)) > want*1.2 {
			t.Fatalf("%s: %d requests in 2s at %.0f req/s", name, len(a), def.rate)
		}
		for i := 1; i < len(a); i++ {
			if a[i].due < a[i-1].due || a[i].due >= 2*time.Second {
				t.Fatalf("%s: due times out of order or range at %d", name, i)
			}
		}
		if c := schedule(&def, 8, 2*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// TestChurnWorkingSet checks the cold-churn draws: every request names a
// member of the Zipf working set or the trap tenant, the trap share and
// rank order hold, each name keeps its class, and the first-touch set is
// exactly the first occurrence of each name.
func TestChurnWorkingSet(t *testing.T) {
	def := mustWorkload(t, "cold-churn")
	class := map[string]string{}
	for _, ts := range def.tenants {
		class[ts.name] = ts.class
	}
	st := newStream(&def, 3, "t")
	const n = 40000
	hits := map[string]int{}
	var touch touchSet
	firstAt := map[string]int{}
	for i := 0; i < n; i++ {
		q := st.next()
		if class[q.name] != q.class {
			t.Fatalf("request %d: name %s runs as %s, bound to %s", i, q.name, q.class, class[q.name])
		}
		if touch.mark(q.name) {
			if _, dup := firstAt[q.name]; dup {
				t.Fatalf("%s marked as a first touch twice", q.name)
			}
			firstAt[q.name] = i
		} else if _, seen := firstAt[q.name]; !seen {
			t.Fatalf("%s not marked on its first occurrence", q.name)
		}
		hits[q.name]++
	}
	if len(firstAt) != len(hits) {
		t.Fatalf("%d first touches for %d distinct names", len(firstAt), len(hits))
	}
	if share := float64(hits[trapTenant]) / n; share < 0.015 || share > 0.025 {
		t.Fatalf("trap share %.4f, want about %.2f", share, def.trapShare)
	}
	if len(hits) < churnNames/2 || len(hits) > churnNames+1 {
		t.Fatalf("%d distinct names drawn from a working set of %d", len(hits), churnNames)
	}
	if !(hits["churn-000"] > hits["churn-001"] && hits["churn-001"] > hits["churn-010"] && hits["churn-010"] > hits["churn-200"]) {
		t.Fatalf("Zipf rank order broken: %d %d %d %d",
			hits["churn-000"], hits["churn-001"], hits["churn-010"], hits["churn-200"])
	}
	if churnNames <= churnCap*4 {
		t.Fatalf("working set %d not well above the pool cap %d", churnNames, churnCap)
	}
}

func TestWeightedPatternKeepsWeights(t *testing.T) {
	mix := host.DefaultMix()
	got := map[string]int{}
	for _, name := range weightedPattern(mix) {
		got[name]++
	}
	for _, c := range mix {
		if got[c.Tenant.Name] != c.Weight {
			t.Fatalf("%s: %d slots, weight %d", c.Tenant.Name, got[c.Tenant.Name], c.Weight)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Name: "root", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 60}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := selfByName(spans, self, "root"); !reflect.DeepEqual(got, []float64{50, 60}) {
		t.Fatalf("root self times %v", got)
	}
}

// served runs q single-threaded through a faas instance, as the reference
// does, and returns its outcome.
func served(t *testing.T, q *request) outcome {
	t.Helper()
	inv := &serveInvoker{reg: httpfront.DefaultRegistry(worldSeed), inst: map[string]*faas.TenantInstance{}}
	return inv.issue(q)()
}

func TestCheckerCatchesWrongOutputs(t *testing.T) {
	ck, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	def := mustWorkload(t, "warm-mix")
	st := newStream(&def, 1, "c")
	byClass := map[string]request{}
	for len(byClass) < len(def.tenants) {
		q := st.next()
		byClass[q.class] = q
	}
	good := map[string]outcome{}
	for class, q := range byClass {
		ck.note(&q)
		o := served(t, &q)
		if !ck.check(&q, o) {
			t.Fatalf("%s: correct outcome rejected: %v", class, ck.errs)
		}
		good[class] = o
	}
	if ck.failed != 0 {
		t.Fatalf("correct outcomes failed the check: %v", ck.errs)
	}

	corrupt := func(class string, edit func(b []byte)) outcome {
		o := good[class]
		o.body = append([]byte(nil), o.body...)
		edit(o.body)
		return o
	}
	cases := []struct {
		class string
		o     outcome
	}{
		{"templated-html", corrupt("templated-html", func(b []byte) { b[len(b)/2] ^= 1 })},
		{"stream-xform", corrupt("stream-xform", func(b []byte) { b[0]++ })},
		{"kv-session", corrupt("kv-session", func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<40) })},
		{"fan-in-agg", corrupt("fan-in-agg", func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<40) })},
		{"hostcall-micro", corrupt("hostcall-micro", func(b []byte) { b[8]++ })},
		{"xml-to-json", outcome{status: host.StatusShed.String()}},
	}
	for _, c := range cases {
		before := ck.failed
		q := byClass[c.class]
		ck.note(&q)
		if ck.check(&q, c.o) || ck.failed != before+1 {
			t.Fatalf("%s: wrong outcome not caught", c.class)
		}
	}

	trap := request{id: "trap", name: trapTenant, class: trapTenant, body: trapBody}
	ck.note(&trap)
	if o := served(t, &trap); !ck.check(&trap, o) {
		t.Fatalf("trap fault rejected: %v", ck.errs)
	}
	if ck.check(&trap, outcome{status: host.StatusOK.String()}) {
		t.Fatal("trap request that did not fault was accepted")
	}
	if !strings.Contains(strings.Join(ck.errs, "\n"), "reference") {
		t.Fatalf("reference mismatch not reported: %v", ck.errs)
	}
}
