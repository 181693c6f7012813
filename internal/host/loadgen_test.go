package host

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestOpenLoopSchedulePinned pins the first 64 (class, seq, due) arrivals
// of the in-process open-loop schedule for seed 1 at 1000 req/s. The
// values are those the generator produced before the in-process and HTTP
// generators were merged, so the merge left in-process traffic
// bit-identical.
func TestOpenLoopSchedulePinned(t *testing.T) {
	want := [64][3]int64{
		{0, 0, 1964522}, {3, 0, 3045384}, {0, 1, 7035406}, {1, 0, 8009177},
		{0, 2, 9050982}, {0, 3, 9223994}, {1, 1, 9692650}, {2, 0, 10375703},
		{1, 2, 10517981}, {0, 4, 10522314}, {0, 5, 11012240}, {3, 1, 14961576},
		{0, 6, 16521140}, {0, 7, 17397522}, {1, 3, 17588020}, {1, 4, 19453679},
		{1, 5, 20161434}, {0, 8, 22307538}, {0, 9, 22415514}, {0, 10, 25897818},
		{3, 2, 26070073}, {1, 6, 28601608}, {1, 7, 29924810}, {0, 11, 30164334},
		{3, 3, 30253155}, {1, 8, 34763878}, {3, 4, 34977577}, {1, 9, 34989638},
		{0, 12, 35495943}, {0, 13, 35712014}, {0, 14, 35787482}, {1, 10, 35793054},
		{1, 11, 36281738}, {3, 5, 36654442}, {0, 15, 38929781}, {2, 1, 39374279},
		{1, 12, 40078454}, {0, 16, 41961499}, {2, 2, 43378602}, {0, 17, 43389644},
		{2, 3, 44622818}, {0, 18, 46332685}, {1, 13, 46349541}, {0, 19, 46801383},
		{0, 20, 47929000}, {0, 21, 49279867}, {2, 4, 50329809}, {0, 22, 52077490},
		{3, 6, 53916470}, {1, 14, 54614600}, {0, 23, 55009423}, {1, 15, 55200044},
		{0, 24, 55561043}, {0, 25, 55748398}, {1, 16, 56069254}, {0, 26, 57226606},
		{1, 17, 57518420}, {1, 18, 58035118}, {0, 27, 58090812}, {1, 19, 58211635},
		{0, 28, 58766158}, {2, 5, 59697581}, {2, 6, 60496400}, {2, 7, 61002891},
	}
	mix := DefaultMix()
	reqs, due := arrivals(mix, 1000, len(want), 1)
	for i, w := range want {
		class := -1
		for k, c := range mix {
			if reqs[i].Tenant.Name == c.Tenant.Name && reqs[i].Iso == c.Iso {
				class = k
			}
		}
		got := [3]int64{int64(class), int64(reqs[i].Seq), int64(due[i])}
		if got != w {
			t.Fatalf("arrival %d = (class, seq, due) %v, want %v", i, got, w)
		}
	}
}

// TestCheckBaseline runs every failure branch of the sweep gate and checks
// that both checked-in baselines gate cleanly against themselves.
func TestCheckBaseline(t *testing.T) {
	for _, path := range []string{"../../scripts/loadtest_baseline.json", "../../scripts/cluster_baseline.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep SweepReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(rep.Sweeps) == 0 || len(rep.Sweeps[0].Points) == 0 {
			t.Fatalf("%s: no points in %+v", path, rep)
		}
		if err := CheckBaseline(rep, path, 1.0); err != nil {
			t.Fatalf("%s does not self-gate: %v", path, err)
		}
	}

	pt := SweepPoint{RateRPS: 300, Offered: 10, OK: 10, P99Ns: 1e6}
	report := func(scale int, p SweepPoint) SweepReport {
		return SweepReport{Mode: "sweep", Unit: "workers", Sweeps: []SweepRun{{Scale: scale, Points: []SweepPoint{p}}}}
	}
	dir := t.TempDir()
	path := dir + "/base.json"
	raw, _ := json.Marshal(report(2, pt))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	slow, none := pt, pt
	slow.P99Ns = 4.1e6
	none.OK, none.Shed = 0, 10
	other := report(2, pt)
	other.Mode = "cluster-sweep"
	cases := []struct {
		name string
		rep  SweepReport
		path string
		want string // "" ⇒ passes
	}{
		{"self", report(2, pt), path, ""},
		{"p99 within tolerance", report(2, SweepPoint{RateRPS: 300, OK: 1, P99Ns: 3.9e6}), path, ""},
		{"p99 over tolerance", report(2, slow), path, "exceeds 4.0x"},
		{"zero successes", report(2, none), path, "zero successes"},
		{"scale missing", report(4, pt), path, "no entry for 4@300"},
		{"rate missing", report(2, SweepPoint{RateRPS: 900, OK: 1}), path, "no entry for 2@900"},
		{"other mode", other, path, `"sweep" report, not "cluster-sweep"`},
		{"no baseline file", report(2, pt), dir + "/absent.json", "no such file"},
	}
	for _, tc := range cases {
		err := CheckBaseline(tc.rep, tc.path, 4.0)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRunSweepConserves runs the in-process sweep end to end: a fresh
// server per rate, every offered request accounted, and the target's
// Check seeing each point before its server closes.
func TestRunSweepConserves(t *testing.T) {
	var checked int
	launch := func() (Target, error) {
		s := New(Config{Workers: 2, QueueDepth: 2, Policy: PolicyShed, DispatchWall: 200 * time.Microsecond})
		return Target{Invoke: s.Invoke, Close: s.Close, Check: func(pt *SweepPoint) error {
			checked++
			if n := s.Snapshot(0).Admitted(); n != uint64(pt.Offered) {
				t.Errorf("server admitted %d of %d offered", n, pt.Offered)
			}
			return nil
		}}, nil
	}
	run, err := RunSweep(2, launch, DefaultMix(), []float64{500, 1e5}, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if run.Scale != 2 || len(run.Points) != 2 || checked != 2 {
		t.Fatalf("run %+v after %d checks, want two checked points at scale 2", run, checked)
	}
	for _, pt := range run.Points {
		if got := pt.OK + pt.Timeouts + pt.Faults + pt.Shed + pt.Rejected + pt.Canceled; got != uint64(pt.Offered) {
			t.Fatalf("point %+v accounts %d of %d", pt, got, pt.Offered)
		}
	}
	if run.Points[1].Shed == 0 {
		t.Fatalf("overloaded point shed nothing: %+v", run.Points[1])
	}
}
