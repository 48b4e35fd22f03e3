package shardsim_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/course"
	"repro/internal/report"
	"repro/internal/shardsim"
	"repro/internal/stats"
	"repro/internal/studentsim"
)

// TestByteIdenticalAcrossGeometry is the tentpole property: the rendered
// report is the same bytes for every shard size and worker count.
func TestByteIdenticalAcrossGeometry(t *testing.T) {
	base := shardsim.Config{Students: 20_000, Seed: 5}
	geoms := []struct {
		shardSize, workers int
	}{
		{4096, 1},
		{4096, 8},
		{1000, 3},
		{37, 16},
		{20_000, 2},
	}
	var want string
	for i, g := range geoms {
		cfg := base
		cfg.ShardSize = g.shardSize
		cfg.Workers = g.workers
		rep, err := shardsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := report.Sharded(rep)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("geometry %+v changed the report:\n--- got ---\n%s\n--- want ---\n%s", g, got, want)
		}
	}
}

// TestTotalsConvergeToTable1 checks the law-of-large-numbers promise: at
// 200k students, per-student row means land on the Table-1 targets and
// the instance-hour total matches the paper's 109837/191.
func TestTotalsConvergeToTable1(t *testing.T) {
	rep, err := shardsim.Run(shardsim.Config{Students: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(rep.Students)
	for _, rt := range rep.Rows {
		got := rt.Instances.Sum() / n
		want := rt.Row.TargetHours
		tol := 0.06 // heavy-tailed rows: SE of the mean ~1.6% at 200k
		if math.Abs(got-want) > tol*want {
			t.Errorf("row %s: per-student hours %.3f, want %.3f ±%.0f%%",
				rt.Row.ID, got, want, tol*100)
		}
		if rt.ClippedMicroHours != 0 {
			t.Errorf("row %s: clipped %d micro-hours under default calibration",
				rt.Row.ID, rt.ClippedMicroHours)
		}
	}
	paper := course.Paper()
	wantTotal := paper.LabInstanceHours / course.Enrollment
	gotTotal := float64(rep.TotalInstanceMicroHours()) / stats.MicroPerUnit / n
	if math.Abs(gotTotal-wantTotal) > 0.03*wantTotal {
		t.Errorf("total per-student instance hours %.2f, want %.2f ±3%%", gotTotal, wantTotal)
	}
	wantFIP := paper.LabFIPHours / course.Enrollment
	gotFIP := float64(rep.TotalFIPMicroHours()) / stats.MicroPerUnit / n
	if math.Abs(gotFIP-wantFIP) > 0.05*wantFIP {
		t.Errorf("total per-student FIP hours %.2f, want %.2f ±5%%", gotFIP, wantFIP)
	}
}

// TestCostDistributionAtScale checks that the paper's Fig. 2 findings
// survive the scale-out: mean per-student cost near $124/$111, a heavy
// tail (max far above the mean), and the headline exceedance — ~3 in 4
// students cost more than the expected-usage estimate — at both
// providers.
func TestCostDistributionAtScale(t *testing.T) {
	rep, err := shardsim.Run(shardsim.Config{Students: 200_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	paper := course.Paper()
	checks := []struct {
		name     string
		c        shardsim.CostTotals
		wantMean float64
	}{
		{"AWS", rep.AWS, paper.LabCostPerStudentAWS},
		{"GCP", rep.GCP, paper.LabCostPerStudentGCP},
	}
	for _, ck := range checks {
		mean := ck.c.PerStudent.Mean()
		if math.Abs(mean-ck.wantMean) > 0.08*ck.wantMean {
			t.Errorf("%s mean $%.2f, want $%.0f ±8%%", ck.name, mean, ck.wantMean)
		}
		if frac := ck.c.ExceedFrac(); frac < 0.70 || frac > 0.82 {
			t.Errorf("%s exceedance %.3f outside [0.70, 0.82] (paper: ~0.73-0.75)",
				ck.name, frac)
		}
		// Heavy tail: the most expensive student dwarfs the mean (the
		// paper's $665 max vs $124 mean at n=191; larger n reaches
		// further into the tail).
		if ck.c.PerStudent.MaxV < 4*mean {
			t.Errorf("%s max $%.0f not heavy-tailed vs mean $%.2f",
				ck.name, ck.c.PerStudent.MaxV, mean)
		}
		if ck.c.PerStudent.N != int64(rep.Students) {
			t.Errorf("%s cost N = %d, want %d", ck.name, ck.c.PerStudent.N, rep.Students)
		}
	}
	if rep.Events == 0 || rep.Occupancy.Peak().Instances == 0 {
		t.Error("no sessions placed: no events or empty occupancy")
	}
}

// TestBehaviorOverrides mirrors the reference what-if semantics
// (studentsim.TestWhatIfAutoTerminationFloor): DisableOverhang cuts the
// mean to near the working-time floor, collapses the overhang-driven
// tail, and leaves reserved (GPU) rows untouched.
func TestBehaviorOverrides(t *testing.T) {
	base, err := shardsim.Run(shardsim.Config{Students: 20_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := shardsim.Run(shardsim.Config{Students: 20_000, Seed: 3,
		Behavior: &studentsim.Behavior{DisableOverhang: true}})
	if err != nil {
		t.Fatal(err)
	}
	baseMean, prunedMean := base.AWS.PerStudent.Mean(), pruned.AWS.PerStudent.Mean()
	if prunedMean >= baseMean-10 {
		t.Errorf("DisableOverhang mean $%.2f should cut well below base $%.2f", prunedMean, baseMean)
	}
	if prunedMean < 70 {
		t.Errorf("DisableOverhang mean $%.2f implausibly low (GPU floor)", prunedMean)
	}
	if pruned.AWS.PerStudent.MaxV >= base.AWS.PerStudent.MaxV/2 {
		t.Errorf("DisableOverhang max $%.0f should collapse the tail (base max $%.0f)",
			pruned.AWS.PerStudent.MaxV, base.AWS.PerStudent.MaxV)
	}
	for i := range base.Rows {
		if !base.Rows[i].Row.Reserved() {
			continue
		}
		if pruned.Rows[i].Instances != base.Rows[i].Instances {
			t.Errorf("row %s reserved hours changed under VM-only override", base.Rows[i].Row.ID)
		}
	}
}

// TestSplitLabelSchemeCollisionFree spot-checks the sharded core's RNG
// derivation paths for stream collisions: across blocks, students, and
// per-student stream labels, no two derived generators may start with
// the same output pair.
func TestSplitLabelSchemeCollisionFree(t *testing.T) {
	const students = 8192 // spans two derivation blocks
	root := stats.NewRNG(1)
	seen := make(map[[2]uint64]string, students*4)
	streams := []uint64{0, 1, 6, 64, 70} // negligence, rows, assignments
	for g := 0; g < students; g++ {
		block := root.Split(1 + uint64(g)>>12)
		stu := block.Split(uint64(g))
		for _, lbl := range streams {
			s := stu.Split(lbl)
			key := [2]uint64{s.Uint64(), s.Uint64()}
			if prev, dup := seen[key]; dup {
				t.Fatalf("stream collision: student %d label %d equals %s", g, lbl, prev)
			}
			seen[key] = fmt.Sprintf("student %d label %d", g, lbl)
		}
	}
}

// TestShortSemesterClipsInsteadOfPanicking runs semesters that end
// before the last lab week. Teardown must truncate or drop sessions —
// never schedule an end before its start — and every dropped or cut
// hour must land in ClippedMicroHours, so per row the placed plus the
// clipped mass equals the full-semester run's.
func TestShortSemesterClipsInsteadOfPanicking(t *testing.T) {
	base := shardsim.Config{Students: 3000, Seed: 4, ShardSize: 700}
	full, err := shardsim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, weeks := range []int{1, 3, 5, 7, 9, 14} {
		cfg := base
		cfg.SemesterWeeks = weeks
		rep, err := shardsim.Run(cfg)
		if err != nil {
			t.Fatalf("SemesterWeeks %d: %v", weeks, err)
		}
		teardown := float64(weeks) * course.HoursPerWeek
		for i, rt := range rep.Rows {
			ref := full.Rows[i]
			got := rt.Instances.SumMicro + rt.ClippedMicroHours
			want := ref.Instances.SumMicro + ref.ClippedMicroHours
			if diff := got - want; diff > ref.Instances.N || -diff > ref.Instances.N {
				t.Errorf("SemesterWeeks %d row %s: placed+clipped %d micro-hours, full semester %d (tolerance %d)",
					weeks, rt.Row.ID, got, want, ref.Instances.N)
			}
			if float64(rt.Row.Week-1)*course.HoursPerWeek >= teardown && rt.Instances.N != 0 {
				t.Errorf("SemesterWeeks %d row %s (week %d): %d sessions placed after teardown",
					weeks, rt.Row.ID, rt.Row.Week, rt.Instances.N)
			}
		}
		if rep.Events > full.Events {
			t.Errorf("SemesterWeeks %d: %d events, more than the full semester's %d",
				weeks, rep.Events, full.Events)
		}
		if rep.AWS.PerStudent.Mean() > full.AWS.PerStudent.Mean() {
			t.Errorf("SemesterWeeks %d: mean bill $%.2f above the full semester's $%.2f",
				weeks, rep.AWS.PerStudent.Mean(), full.AWS.PerStudent.Mean())
		}
	}
	for _, weeks := range []int{-3, -1, shardsim.MaxSemesterWeeks + 1} {
		if _, err := shardsim.Run(shardsim.Config{Students: 10, SemesterWeeks: weeks}); err == nil {
			t.Errorf("SemesterWeeks %d: want an error", weeks)
		}
	}
}

// TestZeroAllocsPerStudent pins the per-student path to the stack:
// doubling the shard count adds allocations bounded by a per-shard
// constant (aggregates, occupancy curve, root RNG), never one per
// student.
func TestZeroAllocsPerStudent(t *testing.T) {
	const shardSize = 1024
	allocs := func(shards int) float64 {
		cfg := shardsim.Config{Students: shards * shardSize, Seed: 2,
			ShardSize: shardSize, Workers: 1}
		return testing.AllocsPerRun(5, func() {
			if _, err := shardsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	const perShard = 32
	four, eight := allocs(4), allocs(8)
	if extra := eight - four; extra > 4*perShard {
		t.Errorf("4 more shards of %d students added %.0f allocs (4 shards: %.0f, 8 shards: %.0f), want <= %d: the per-student path allocates",
			shardSize, extra, four, eight, 4*perShard)
	}
}
