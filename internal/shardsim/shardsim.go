// Package shardsim is the sharded, parallel simulation core for
// million-student runs of the course usage model.
//
// A run is partitioned into fixed-size student shards. Each shard owns
// its RNG streams and a private set of streaming aggregates (stats.Acc,
// stats.Hist, cloud.Occupancy) — never per-instance records, so memory
// stays bounded by the shard size regardless of the population. Every
// session a student generates is folded into those aggregates the moment
// it is drawn: the aggregates are integral and order-free, so there is
// no event queue to replay, and the per-student path allocates nothing.
// Shards execute concurrently on a worker pool and the partial
// aggregates merge in shard order.
//
// # Determinism (DESIGN.md §11)
//
// The same Config.Seed produces byte-identical reports for every worker
// count, GOMAXPROCS, and ShardSize. Three invariants carry that:
//
//  1. RNG derivation never flows through execution boundaries. Student g
//     draws from seed → block(g>>12) → student(g) → stream; the 4096-
//     student derivation block is a constant, not the shard size. The
//     splits use stats.RNG.SplitValue, so deriving a student's streams
//     never allocates.
//  2. Every student is a pure function of (seed, g): the analytic model
//     (model.go) has no cross-student coupling for a shard boundary to
//     cut.
//  3. Aggregates are integral. Sums accumulate in 1e-6 fixed point and
//     counts/occupancy deltas are int64, so merging is associative and
//     commutative; min/max are order-free already.
package shardsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/course"
	"repro/internal/stats"
	"repro/internal/studentsim"
)

// Config parameterizes a sharded run. Zero fields take defaults.
type Config struct {
	// Students is the population size (default course.Enrollment).
	Students int
	// Seed feeds the root RNG (default 1).
	Seed uint64
	// ShardSize is students per shard (default 4096). It changes how
	// work is chunked, never what is computed.
	ShardSize int
	// Workers caps concurrent shard executions (default GOMAXPROCS).
	Workers int
	// SemesterWeeks bounds instance lifetimes (default 15): teardown at
	// the end of the last week truncates running sessions and drops ones
	// that would start later, booking their mass as clipped. It must lie
	// in [0, MaxSemesterWeeks].
	SemesterWeeks int
	// Behavior overrides the calibrated behavior constants; nil uses
	// the paper defaults.
	Behavior *studentsim.Behavior
}

// MaxSemesterWeeks bounds Config.SemesterWeeks. Every shard holds an
// hourly occupancy curve spanning the semester, so the bound keeps a
// run's memory proportional to the shard count; ten years is far past
// any course calendar.
const MaxSemesterWeeks = 520

func (c Config) withDefaults() Config {
	if c.Students == 0 {
		c.Students = course.Enrollment
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 4096
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SemesterWeeks == 0 {
		c.SemesterWeeks = 15
	}
	return c
}

// RowTotals is the merged per-row usage, in micro-hours.
type RowTotals struct {
	Row course.Row
	// Instances aggregates per-session instance-hours (Sum = the row's
	// Table-1 total); FIPs aggregates floating-IP hours.
	Instances stats.Acc
	FIPs      stats.Acc
	// ClippedMicroHours is overhang mass (micro instance-hours) that the
	// per-deployment cap or semester teardown made unplaceable — the
	// explicit remainder of the "row total survives" invariant.
	ClippedMicroHours int64
}

// CostTotals is the merged per-student cost distribution for one
// provider.
type CostTotals struct {
	// PerStudent aggregates each student's semester lab bill.
	PerStudent stats.Acc
	// Exceed counts students whose bill is strictly above Expected (the
	// paper's expected-usage cost).
	Exceed   int64
	Expected float64
	// Hist buckets the bills geometrically for quantile readout.
	Hist *stats.Hist
}

// ExceedFrac returns the fraction of students above Expected.
func (c CostTotals) ExceedFrac() float64 {
	if c.PerStudent.N == 0 {
		return 0
	}
	return float64(c.Exceed) / float64(c.PerStudent.N)
}

// Report is the merged result of a sharded run. Every field is a
// deterministic function of (Students, Seed, SemesterWeeks, Behavior);
// ShardSize and Workers are echoed for provenance but never influence
// the numbers.
type Report struct {
	Students      int
	Seed          uint64
	SemesterWeeks int
	ShardSize     int
	Shards        int
	Workers       int

	// Rows is in course.Rows() catalog order.
	Rows []RowTotals
	AWS  CostTotals
	GCP  CostTotals
	// Occupancy is the population-wide concurrency curve.
	Occupancy *cloud.Occupancy
	// Events counts the session effects applied across all shards: two
	// per session placed (its launch and its delete).
	Events int64
}

// TotalInstanceMicroHours sums instance micro-hours across rows.
func (r *Report) TotalInstanceMicroHours() int64 {
	var t int64
	for i := range r.Rows {
		t += r.Rows[i].Instances.SumMicro
	}
	return t
}

// TotalFIPMicroHours sums floating-IP micro-hours across rows.
func (r *Report) TotalFIPMicroHours() int64 {
	var t int64
	for i := range r.Rows {
		t += r.Rows[i].FIPs.SumMicro
	}
	return t
}

// costHist returns the per-student bill histogram shape: buckets
// [1, sqrt(2)) ... covering $1 to ~$16M.
func costHist() *stats.Hist { return stats.NewHist(1, math.Sqrt2, 48) }

// shardAgg is one shard's private partial aggregates.
type shardAgg struct {
	rows   []RowTotals
	aws    CostTotals
	gcp    CostTotals
	occ    *cloud.Occupancy
	events int64
}

func newShardAgg(c *calibration) *shardAgg {
	a := &shardAgg{
		rows: make([]RowTotals, len(c.rows)),
		aws:  CostTotals{Expected: c.expectedAWS, Hist: costHist()},
		gcp:  CostTotals{Expected: c.expectedGCP, Hist: costHist()},
		occ:  cloud.NewOccupancy(int(math.Ceil(c.teardown))),
	}
	for i := range a.rows {
		a.rows[i].Row = c.rows[i].row
	}
	return a
}

// Run executes a sharded simulation.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Students < 0 {
		return nil, fmt.Errorf("shardsim: negative Students %d", cfg.Students)
	}
	if cfg.SemesterWeeks < 0 || cfg.SemesterWeeks > MaxSemesterWeeks {
		return nil, fmt.Errorf("shardsim: SemesterWeeks %d outside [0, %d]",
			cfg.SemesterWeeks, MaxSemesterWeeks)
	}
	calib, err := newCalibration(cfg)
	if err != nil {
		return nil, err
	}

	shards := (cfg.Students + cfg.ShardSize - 1) / cfg.ShardSize
	parts := make([]*shardAgg, shards)

	// Workers pull shard indexes from an atomic counter: scheduling
	// order is racy, but each result lands in its own slot and the merge
	// below walks slots in shard order, so the race never reaches the
	// output.
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > shards {
		workers = shards
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= shards {
					return
				}
				parts[s] = runShard(calib, cfg, s)
			}
		}()
	}
	wg.Wait()

	rep := &Report{
		Students:      cfg.Students,
		Seed:          cfg.Seed,
		SemesterWeeks: cfg.SemesterWeeks,
		ShardSize:     cfg.ShardSize,
		Shards:        shards,
		Workers:       cfg.Workers,
		Rows:          make([]RowTotals, len(calib.rows)),
		AWS:           CostTotals{Expected: calib.expectedAWS, Hist: costHist()},
		GCP:           CostTotals{Expected: calib.expectedGCP, Hist: costHist()},
		Occupancy:     cloud.NewOccupancy(int(math.Ceil(calib.teardown))),
	}
	for i := range rep.Rows {
		rep.Rows[i].Row = calib.rows[i].row
	}
	for _, p := range parts {
		rep.mergeShard(p)
	}
	return rep, nil
}

// mergeShard folds one shard's aggregates into the report. Everything
// merged here is integer micro-units or counters (DESIGN §11): the
// floatmerge lint check walks this function's call tree to prove no
// float arithmetic can reach the merge, which is what keeps the final
// report independent of shard geometry and worker interleaving.
func (rep *Report) mergeShard(p *shardAgg) {
	for i := range rep.Rows {
		rep.Rows[i].Instances.Merge(p.rows[i].Instances)
		rep.Rows[i].FIPs.Merge(p.rows[i].FIPs)
		rep.Rows[i].ClippedMicroHours += p.rows[i].ClippedMicroHours
	}
	rep.AWS.PerStudent.Merge(p.aws.PerStudent)
	rep.AWS.Exceed += p.aws.Exceed
	rep.AWS.Hist.Merge(p.aws.Hist)
	rep.GCP.PerStudent.Merge(p.gcp.PerStudent)
	rep.GCP.Exceed += p.gcp.Exceed
	rep.GCP.Hist.Merge(p.gcp.Hist)
	rep.Occupancy.Merge(p.occ)
	rep.Events += p.events
}

// runShard simulates students [shard*ShardSize, ...) and returns the
// shard's aggregates.
func runShard(c *calibration, cfg Config, shard int) *shardAgg {
	agg := newShardAgg(c)
	root := stats.NewRNG(cfg.Seed)

	lo := shard * cfg.ShardSize
	hi := lo + cfg.ShardSize
	if hi > cfg.Students {
		hi = cfg.Students
	}
	for g := lo; g < hi; g++ {
		// Fixed derivation blocks: the path to a student's generator
		// depends only on g, never on the shard geometry.
		block := root.SplitValue(1 + uint64(g)>>blockShift)
		stu := block.SplitValue(uint64(g))
		simulateStudent(c, &stu, agg)
	}
	return agg
}

// clipToTeardown truncates the session [start, end) of row ri at
// semester teardown and books the cut as clipped mass, keeping the
// row-total invariant explicit. It returns the kept end, and ok=false
// when the session starts at or after teardown: then all of its mass is
// clipped and the session must not be placed.
func clipToTeardown(c *calibration, agg *shardAgg, ri int,
	start, end float64) (kept float64, ok bool) {
	if end <= c.teardown {
		return end, true
	}
	cut := c.teardown
	if start >= cut {
		cut = start
	}
	agg.rows[ri].ClippedMicroHours +=
		stats.Micro((end - cut) * float64(c.rows[ri].row.VMsPerStudent))
	return cut, start < c.teardown
}

// addSession applies one resource-holding window [start, end) of a row
// to the shard aggregates: occupancy for its launch, hour metering for
// its delete. Both are integral, order-free folds (DESIGN §11), so
// applying them as the session is drawn yields the same bits as
// replaying launches and deletes in time order.
func addSession(c *calibration, agg *shardAgg, ri int, start, end float64) {
	rc := &c.rows[ri]
	if end < start {
		panic(fmt.Sprintf("shardsim: row %s session ends at %g, before its start %g",
			rc.row.ID, end, start))
	}
	vms := rc.row.VMsPerStudent
	agg.occ.AddInstances(start, end, rc.row.Flavor, vms)
	agg.occ.AddFloatingIPs(start, end, 1)
	dur := end - start
	agg.rows[ri].Instances.Add(dur * float64(vms))
	agg.rows[ri].FIPs.Add(dur)
	agg.events += 2
}

// sessionCost prices one session on both providers.
func sessionCost(rc *rowCalib, dur float64) (aws, gcp float64) {
	ih := dur * float64(rc.row.VMsPerStudent)
	fip := dur * rc.fipRate
	return ih*rc.awsRate + fip, ih*rc.gcpRate + fip
}

// simulateStudent generates one student's semester: every on-demand VM
// row plus one reserved pick per lease-backed assignment. Sessions and
// the student's bill fold into the shard aggregates as they are drawn
// (they are pure functions of the draws). Streams are split by value,
// so the whole path stays off the heap.
func simulateStudent(c *calibration, stu *stats.RNG, agg *shardAgg) {
	var costAWS, costGCP float64

	// Shared negligence factor: the Fig. 2 long tail.
	negRNG := stu.SplitValue(lblNegligence)
	neg := negRNG.LogNormalMean(1, c.behavior.NegligenceSigma)

	for _, ri := range c.vmRows {
		rc := &c.rows[ri]
		rng := stu.SplitValue(lblRowBase + uint64(ri))
		prompt := rng.Bool(c.behavior.PromptDeleteFrac)
		effort := rng.Triangular(c.cal.EffortLo, c.cal.EffortMode, c.cal.EffortHi)
		noise := rng.LogNormalMean(1, c.cal.RowNoiseSigma)
		start := rc.weekHour + rng.Uniform(2, 120)

		working := effort * rc.row.ExpectedHours
		overhang := 0.0
		if !prompt {
			switch {
			case rc.capAll:
				overhang = c.cal.MaxOverhangHours
				agg.rows[ri].ClippedMicroHours +=
					stats.Micro(rc.clippedPerNP * float64(rc.row.VMsPerStudent))
			case rc.overhangMult > 0:
				overhang = rc.overhangMult * neg * noise
				if overhang > c.cal.MaxOverhangHours {
					overhang = c.cal.MaxOverhangHours
				}
			}
		}
		end, ok := clipToTeardown(c, agg, ri, start, start+working+overhang)
		if !ok {
			continue
		}
		addSession(c, agg, ri, start, end)
		a, g := sessionCost(rc, end-start)
		costAWS += a
		costGCP += g
	}

	for ai := range c.assignments {
		asg := &c.assignments[ai]
		rng := stu.SplitValue(lblAssignBase + uint64(ai))
		// Pick one hardware alternative by catalog share.
		u := rng.Float64() * asg.cumShare[len(asg.cumShare)-1]
		ri := asg.rows[len(asg.rows)-1]
		for k, cum := range asg.cumShare {
			if u < cum {
				ri = asg.rows[k]
				break
			}
		}
		rc := &c.rows[ri]
		if !rng.Bool(rc.attendFrac) {
			continue
		}
		slots := rc.slotBase
		if rng.Bool(rc.slotFrac) {
			slots++
		}
		start := rc.weekHour + rng.Uniform(2, 120)
		for k := 0; k < slots; k++ {
			// The next slot follows the unclipped one, so teardown never
			// shifts the draws of later slots.
			next := start + rc.row.SlotHours
			if end, ok := clipToTeardown(c, agg, ri, start, next); ok {
				addSession(c, agg, ri, start, end)
				dur := rc.row.SlotHours // exact slot length unless cut
				if end < next {
					dur = end - start
				}
				a, g := sessionCost(rc, dur)
				costAWS += a
				costGCP += g
			}
			start = next + rng.Uniform(2, 20)
		}
	}

	agg.aws.PerStudent.Add(costAWS)
	agg.aws.Hist.Add(costAWS)
	if costAWS > agg.aws.Expected {
		agg.aws.Exceed++
	}
	agg.gcp.PerStudent.Add(costGCP)
	agg.gcp.Hist.Add(costGCP)
	if costGCP > agg.gcp.Expected {
		agg.gcp.Exceed++
	}
}
