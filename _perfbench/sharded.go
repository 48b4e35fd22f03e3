package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/report"
	"repro/internal/shardsim"
)

const (
	// shardedStudents is 12 shards of the default 4096 students: tens of
	// shards, and enough runs in a measured window for stable percentiles.
	shardedStudents = 12 * 4096
	// checkStudents is the small population on which Workers=1 and
	// Workers=nproc must render identical bytes.
	checkStudents  = 12 * 1024
	checkShardSize = 1024

	// Fig. 2 anchors at scale: mean per-student lab cost and the share
	// of students above the expected-usage cost.
	fig2MeanAWS, fig2MeanGCP     = 124.0, 111.0
	fig2ExceedAWS, fig2ExceedGCP = 0.798, 0.763
	fig2MeanBand                 = 0.02 // ±2% of the mean
	fig2ExceedBand               = 0.01 // ±0.01 absolute
)

// shardedWL runs the streaming sharded core on tens of shards with one
// worker per CPU and renders its report.
type shardedWL struct {
	seeds   seedList
	workers int
}

func newSharded(seed uint64) workload {
	return &shardedWL{seeds: seedList{base: seed}, workers: runtime.NumCPU()}
}

func (w *shardedWL) setup() error {
	u := w.run(-1, nil)
	if u.failed > 0 {
		return fmt.Errorf("warm-up run failed: %v", u.problems)
	}
	return nil
}

func (w *shardedWL) run(i int, rec *recorder) unit {
	seed := w.seeds.at(i)
	u := unit{students: shardedStudents}
	start := time.Now()
	root := rec.startRun("sharded.run", i)
	id := rec.begin("shardsim.run")
	t0 := time.Now()
	rep, err := shardsim.Run(shardsim.Config{Students: shardedStudents, Seed: seed, Workers: w.workers})
	u.ops = append(u.ops, usSince(t0))
	rec.end(id)
	u.call(err, false, fmt.Sprintf("shardsim.Run seed %d", seed))
	if err != nil {
		rec.end(root)
		return u
	}
	id = rec.begin("report.sharded_render")
	t0 = time.Now()
	out := report.Sharded(rep)
	u.reads = append(u.reads, usSince(t0))
	rec.end(id)
	rec.end(root)
	u.wall = time.Since(start)

	sum := sha256.Sum256([]byte(out))
	u.digest = hex.EncodeToString(sum[:8])
	u.counts = map[string]float64{"shardsim.events": float64(rep.Events)}
	for _, a := range []struct {
		name             string
		mean, exceed     float64
		wantMean, wantEx float64
	}{
		{"AWS", rep.AWS.PerStudent.Mean(), rep.AWS.ExceedFrac(), fig2MeanAWS, fig2ExceedAWS},
		{"GCP", rep.GCP.PerStudent.Mean(), rep.GCP.ExceedFrac(), fig2MeanGCP, fig2ExceedGCP},
	} {
		u.check(math.Abs(a.mean-a.wantMean) <= fig2MeanBand*a.wantMean,
			"seed %d: %s mean $%.2f outside ±%.0f%% of $%.0f", seed, a.name, a.mean, 100*fig2MeanBand, a.wantMean)
		u.check(math.Abs(a.exceed-a.wantEx) <= fig2ExceedBand,
			"seed %d: %s exceedance %.4f outside %.3f±%.2f", seed, a.name, a.exceed, a.wantEx, fig2ExceedBand)
	}
	return u
}

// finish checks, outside the timed region, that the rendered report does
// not depend on the worker count.
func (w *shardedWL) finish() unit {
	var u unit
	render := func(workers int) string {
		rep, err := shardsim.Run(shardsim.Config{Students: checkStudents, Seed: w.seeds.at(0),
			ShardSize: checkShardSize, Workers: workers})
		u.call(err, false, fmt.Sprintf("shardsim.Run workers=%d", workers))
		if err != nil {
			return ""
		}
		return report.Sharded(rep)
	}
	one, many := render(1), render(w.workers)
	u.check(one != "" && one == many, "report.Sharded differs between Workers=1 and Workers=%d", w.workers)
	return u
}

func (w *shardedWL) layers(traced []unit, spans []span, self []int64) map[string]float64 {
	runs := perRun(spans, self, "shardsim.run")
	var nsPerEvent []float64
	for i, u := range traced {
		if i < len(runs) && u.counts["shardsim.events"] > 0 {
			nsPerEvent = append(nsPerEvent, runs[i]*1e6/u.counts["shardsim.events"])
		}
	}
	return map[string]float64{
		"shardsim.run_ms":          median(runs),
		"report.sharded_render_ms": median(perRun(spans, self, "report.sharded_render")),
		"shardsim.ns_per_event":    median(nsPerEvent),
		"shardsim.events":          traced[0].counts["shardsim.events"],
	}
}
