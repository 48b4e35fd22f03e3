package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/course"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := seedList{base: 7}, seedList{base: 7}, seedList{base: 8}
	for i := -1; i < 50; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("seed list differs at run %d", i)
		}
		if a.at(i) == c.at(i) {
			t.Fatalf("workload seeds 7 and 8 share run %d's seed", i)
		}
	}
	if !reflect.DeepEqual(genScript(42), genScript(42)) {
		t.Fatal("platform script differs for the same seed")
	}
	if reflect.DeepEqual(genScript(42), genScript(43)) {
		t.Fatal("platform scripts of seeds 42 and 43 are equal")
	}
	p1 := newCourse(5, paperStudents, true).(*courseWL)
	p2 := newCourse(5, paperStudents, true).(*courseWL)
	if !reflect.DeepEqual(p1.probes, p2.probes) {
		t.Fatal("lease probes differ for the same seed")
	}
}

func TestScriptIsOrderedAndWellFormed(t *testing.T) {
	sc := genScript(1)
	for i, a := range sc.actions {
		if i > 0 && a.at < sc.actions[i-1].at {
			t.Fatalf("action %d at %.3f precedes action %d at %.3f", i, a.at, i-1, sc.actions[i-1].at)
		}
		if a.kind == actReserve && !(a.start > a.at && a.end > a.start) {
			t.Fatalf("reservation window [%.2f, %.2f) booked at %.2f", a.start, a.end, a.at)
		}
		if a.kind != actReserve && (a.slot < 0 || a.slot >= sc.slots) {
			t.Fatalf("action %d names slot %d of %d", i, a.slot, sc.slots)
		}
	}
}

// TestScriptFollowsTable1 checks that the platform script's instance-hour
// mix per flavor stays near Table 1's. The cut at the horizon shortens
// the longest sessions, so the match is loose.
func TestScriptFollowsTable1(t *testing.T) {
	got := map[string]float64{}
	var total float64
	for seed := uint64(1); seed <= 200; seed++ {
		sc := genScript(seed)
		launched := map[int]action{}
		for _, a := range sc.actions {
			var h float64
			switch a.kind {
			case actLaunch:
				launched[a.slot] = a
			case actDelete:
				l := launched[a.slot]
				got[l.flavor.Name] += a.at - l.at
				h = a.at - l.at
			case actReserve:
				got[a.flavor.Name] += a.end - a.start
				h = a.end - a.start
			}
			total += h
		}
	}
	want := map[string]float64{}
	var wantTotal float64
	for _, row := range course.Rows() {
		want[row.Flavor.Name] += row.TargetHours
		wantTotal += row.TargetHours
	}
	for name, w := range want {
		if g := got[name] / total; math.Abs(g-w/wantTotal) > 0.06 {
			t.Errorf("%s: %.3f of scripted hours, Table 1 has %.3f", name, g, w/wantTotal)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten(), 50, 5},
		{ten(), 90, 9},
		{ten(), 99, 10},
		{ten(), 100, 10},
		{ten(), 1, 1},
		{[]float64{3}, 99, 3},
		{[]float64{2, 1}, 50, 1},
		{nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{1000, 99, 99},  // 10 samples beyond p99
		{500, 99, 98},   // capped at rank 490
		{30, 90, 66.67}, // rank 20 of 30
		{12, 99, 50},    // never below the median
		{1, 90, 100},
	} {
		if got := tailRank(c.n, c.p); math.Abs(got-c.want) > 0.01 {
			t.Errorf("tailRank(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || xs[0] != 3 {
		t.Errorf("median must not reorder its input: got %v, input now %v", median(xs), xs)
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONListsEveryMetric keeps the repository's
// BENCHMARK.json in step with the metrics this program prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
}

func TestCorruptedResultIsAFailure(t *testing.T) {
	c := newCourse(1, paperStudents, true).(*courseWL)
	s, err := core.Planner{Students: paperStudents, Seed: c.seeds.at(0)}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var good unit
	c.checkSummary(&good, s, 0)
	if good.failed != 0 {
		t.Fatalf("an uncorrupted summary failed its checks: %v", good.problems)
	}
	s.LabInstanceHours *= 1.01
	var bad unit
	c.checkSummary(&bad, s, 0)
	if bad.failed == 0 {
		t.Fatal("lab hours 1% off the paper passed the check")
	}

	var res tally
	compareDigests(&res, []unit{{digest: "aa"}, {digest: "bb"}}, []unit{{digest: "aa"}, {digest: "bc"}})
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("digest mismatch counted as %d failed of %d", res.failed, res.attempted)
	}
	line, err := resultLine(res, endToEnd, map[string]float64{"setup_s": 1})
	if err != nil {
		t.Fatal(err)
	}
	var out resultOut
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 || len(out.Metrics) != len(endToEnd) {
		t.Fatalf("result line %s: want correct=false, failed=1 and every end-to-end metric", line)
	}
}

func TestPlatformTeardownLeakIsAFailure(t *testing.T) {
	p := newPlatform(3).(*platformWL)
	u := p.run(0, nil)
	if u.failed != 0 {
		t.Fatalf("clean scenario failed: %s", strings.Join(u.problems, "; "))
	}
	// Leave one instance running past teardown: the quota and capacity
	// checks must catch it.
	s := wire(1)
	if _, err := s.cl.Launch(cloud.LaunchSpec{Project: project, Name: "leak", Flavor: cloud.M1Small}); err != nil {
		t.Fatal(err)
	}
	r := &replay{s: s, u: &unit{}, h: sha256.New()}
	p.check(r, 1)
	if r.u.failed < 2 {
		t.Fatalf("leaked instance produced %d failures, want quota and host failures: %v", r.u.failed, r.u.problems)
	}
}

func TestTracedRunMatchesTimedRun(t *testing.T) {
	for name, mk := range map[string]func(uint64) workload{
		"paper":    workloads["paper"],
		"platform": workloads["platform"],
	} {
		w := mk(9)
		timed := w.run(0, nil)
		traced := w.run(0, newRecorder())
		if timed.failed+traced.failed != 0 || timed.digest != traced.digest {
			t.Errorf("%s: timed %s (%d failed), traced %s (%d failed)", name,
				timed.digest, timed.failed, traced.digest, traced.failed)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "run", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 50, end: 60, parent: 0},
		{name: "c", start: 52, end: 55, parent: 2},
	}
	got := selfTimes(spans)
	if want := []int64{60, 30, 7, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	rec := newRecorder()
	root := rec.startRun("run", 4)
	child := rec.begin("child")
	rec.end(child)
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].parent != 0 || rec.spans[1].run != 4 || rec.open != -1 {
		t.Fatalf("recorder spans %+v, open %d", rec.spans, rec.open)
	}
}
