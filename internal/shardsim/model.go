package shardsim

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/studentsim"
)

// The per-student analytic model.
//
// The reference runner (studentsim.SimulateLabs) couples students through
// shared state: stratified samplers hand each student one quantile of the
// population, the overhang waterfiller normalizes by the realized weight
// sum, and lease pools saturate. That coupling is what pins Table-1
// totals tightly at n=191 — and exactly what a shard-count-invariant
// parallel core cannot keep, because any cross-student dependence makes a
// student's outcome depend on who shares their shard.
//
// The sharded core therefore makes every student a pure function of
// (seed, student index): the same behavioral distributions, but sampled
// independently, with the two population-level normalizations replaced by
// their closed-form expectations:
//
//   - the waterfilling cap redistribution becomes a truncated-lognormal
//     calibration — the overhang multiplier is solved so that
//     E[min(m·W, maxOverhang)] equals the per-student mass, which is what
//     waterfilling achieves on average;
//   - lease-pool contention is dropped; reserved rows book their
//     slot-quantized sessions analytically (DESIGN.md records the
//     substitution).
//
// Sample means then converge to Table 1 by the law of large numbers —
// the regime the sharded runner exists for (10^5..10^6 students) — while
// per-row totals at n=191 are noisier than the stratified reference.

// rowCalib is the precomputed per-row parameterization.
type rowCalib struct {
	row      course.Row
	awsRate  float64
	gcpRate  float64
	fipRate  float64
	weekHour float64 // (Week-1) * HoursPerWeek

	// On-demand VM rows.
	overhangMult float64 // m: per-student overhang = min(m*neg*noise, cap)
	capAll       bool    // mass >= cap: every non-prompt student pins at cap
	clippedPerNP float64 // unplaceable mass per non-prompt student when capAll

	// Reserved rows.
	attendFrac float64
	slotBase   int
	slotFrac   float64
}

// assignmentCalib groups the reserved-row alternatives of one lab
// assignment, in catalog order, with cumulative shares for the pick.
type assignmentCalib struct {
	rows     []int // indexes into calibration.rows
	cumShare []float64
}

// calibration is everything a shard worker needs, computed once per run.
type calibration struct {
	rows        []rowCalib
	vmRows      []int // indexes of on-demand rows, catalog order
	assignments []assignmentCalib
	behavior    studentsim.Behavior
	cal         studentsim.Calibration
	sigmaCombo  float64 // shape of negligence x row-noise product
	teardown    float64
	expectedAWS float64
	expectedGCP float64
}

func newCalibration(cfg Config) (*calibration, error) {
	cal := studentsim.DefaultCalibration()
	b := studentsim.EffectiveBehavior(cfg.Behavior)
	c := &calibration{
		behavior:    b,
		cal:         cal,
		sigmaCombo:  math.Hypot(b.NegligenceSigma, cal.RowNoiseSigma),
		teardown:    float64(cfg.SemesterWeeks) * course.HoursPerWeek,
		expectedAWS: course.Paper().ExpectedLabCostAWS,
		expectedGCP: course.Paper().ExpectedLabCostGCP,
	}
	meanEffort := (cal.EffortLo + cal.EffortMode + cal.EffortHi) / 3
	keptScale := (1 - b.PromptDeleteFrac) / (1 - cal.PromptDeleteFrac)

	rows := course.Rows()
	byAssignment := map[string]int{} // assignment name -> index into c.assignments
	for i, row := range rows {
		rc := rowCalib{
			row:      row,
			fipRate:  cost.FloatingIPRate,
			weekHour: float64(row.Week-1) * course.HoursPerWeek,
		}
		if row.ID == "6-edge" {
			// No commercial equivalent: the paper excludes the row from
			// all dollar figures, floating IPs included.
			rc.fipRate = 0
		} else {
			eq, err := cost.LabEquivalent(row.ID)
			if err != nil {
				return nil, fmt.Errorf("shardsim: %w", err)
			}
			rc.awsRate = eq.Rate(cost.AWS).PerHour
			rc.gcpRate = eq.Rate(cost.GCP).PerHour
		}

		if row.Reserved() {
			share := row.Share
			if share <= 0 {
				share = 1
			}
			muTotal := row.TargetHours / (share * row.SlotHours)
			attendFrac := 1 - cal.GPUSkipFrac
			if muTotal < attendFrac {
				attendFrac = muTotal
			}
			muSlots := muTotal / attendFrac
			rc.attendFrac = attendFrac
			rc.slotBase = int(math.Floor(muSlots))
			rc.slotFrac = muSlots - float64(rc.slotBase)

			ai, ok := byAssignment[row.Assignment]
			if !ok {
				ai = len(c.assignments)
				byAssignment[row.Assignment] = ai
				c.assignments = append(c.assignments, assignmentCalib{})
			}
			a := &c.assignments[ai]
			a.rows = append(a.rows, i)
			prev := 0.0
			if len(a.cumShare) > 0 {
				prev = a.cumShare[len(a.cumShare)-1]
			}
			a.cumShare = append(a.cumShare, prev+share)
		} else {
			targetDeploy := row.TargetHours / float64(row.VMsPerStudent)
			mass := (targetDeploy - meanEffort*row.ExpectedHours) * keptScale * b.OverhangScale
			if mass < 0 {
				mass = 0
			}
			nonPromptFrac := 1 - b.PromptDeleteFrac
			if nonPromptFrac > 0 && mass > 0 {
				perNP := mass / nonPromptFrac
				if perNP >= cal.MaxOverhangHours*(1-1e-9) {
					rc.capAll = true
					rc.clippedPerNP = perNP - cal.MaxOverhangHours
				} else {
					rc.overhangMult = solveOverhangMult(perNP, c.sigmaCombo, cal.MaxOverhangHours)
				}
			}
			c.vmRows = append(c.vmRows, i)
		}
		c.rows = append(c.rows, rc)
	}
	return c, nil
}

// normCDF is the standard normal CDF via erfc (accurate in both tails).
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// cappedLogNormalMean returns E[min(Y, cap)] for Y lognormal with
// arithmetic mean m and shape sigma.
func cappedLogNormalMean(m, sigma, cap float64) float64 {
	if m <= 0 {
		return 0
	}
	mu := math.Log(m) - sigma*sigma/2
	z := (math.Log(cap) - mu) / sigma
	return m*normCDF(z-sigma) + cap*(1-normCDF(z))
}

// solveOverhangMult finds m such that E[min(m*W, cap)] = target, where W
// is a mean-1 lognormal with shape sigma. This is the closed-form
// stand-in for waterfilling: the cap clips the tail and the multiplier
// re-inflates everyone else so the mean — hence the row total, by LLN —
// survives. Deterministic bisection, ~1 ulp converged.
func solveOverhangMult(target, sigma, cap float64) float64 {
	lo, hi := target, cap*1e9 // E[min(mW,cap)] <= m, so m >= target
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric: the scale spans decades
		if cappedLogNormalMean(mid, sigma, cap) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// RNG split labels per student. Blocks of blockSize students share a
// first-level split so the derivation path is seed -> shard-block ->
// student -> stream; blockSize is a constant precisely so that the
// derived streams do not depend on the configured execution shard size.
const (
	blockShift = 12 // 4096-student derivation blocks

	lblNegligence = 0
	lblRowBase    = 1  // +row index: on-demand VM row streams
	lblAssignBase = 64 // +assignment index: reserved assignment streams
)
