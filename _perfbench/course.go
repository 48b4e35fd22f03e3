package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/lease"
	"repro/internal/report"
	"repro/internal/studentsim"
)

const (
	paperStudents  = 191
	cohortStudents = 800

	// paperLabHours is the paper's lab instance-hours (Table 1). Seeds
	// of the 191-student course land within a few hours of it.
	paperLabHours   = 109837.0
	paperHoursBand  = 0.001 // ±0.1% of paperLabHours
	paperCostLo     = 225.0 // per-student cost, either provider, in $
	paperCostHi     = 275.0
	cohortHoursBand = 0.005 // per-student lab hours within ±0.5% of the paper's

	probesPerRun = 64
)

// slotQuery is one generated lease.FindSlot probe.
type slotQuery struct {
	nodeType                    string
	earliest, duration, horizon float64
}

// courseWL simulates whole course offerings through core.Planner: the
// paper path at 191 students, or a multi-section cohort. Each run
// simulates a fresh seed, then renders what coursesim prints.
type courseWL struct {
	students int
	paper    bool
	seeds    seedList
	probes   []slotQuery
	reserved []string // node types of the reserved (bare-metal) rows
}

func newCourse(seed uint64, students int, paper bool) workload {
	c := &courseWL{students: students, paper: paper, seeds: seedList{base: seed}}
	var reserved []course.Row
	seen := map[string]bool{}
	for _, row := range course.Rows() {
		if row.Reserved() {
			reserved = append(reserved, row)
			if !seen[row.Flavor.Name] {
				seen[row.Flavor.Name] = true
				c.reserved = append(c.reserved, row.Flavor.Name)
			}
		}
	}
	r := splitmix64{s: seed ^ 0x5eed}
	for k := 0; k < probesPerRun; k++ {
		row := reserved[r.intn(len(reserved))]
		ws := float64(row.Week-1) * course.HoursPerWeek
		c.probes = append(c.probes, slotQuery{
			nodeType: row.Flavor.Name,
			earliest: ws + r.uniform(0, course.HoursPerWeek-8),
			duration: r.uniform(1, 6),
			horizon:  ws + course.HoursPerWeek,
		})
	}
	return c
}

// setup warms up with one full run on a seed outside the run list.
func (c *courseWL) setup() error {
	u := c.run(-1, nil)
	if u.failed > 0 {
		return fmt.Errorf("warm-up run failed: %s", strings.Join(u.problems, "; "))
	}
	return nil
}

func (c *courseWL) finish() unit { return unit{} }

func (c *courseWL) run(i int, rec *recorder) unit {
	seed := c.seeds.at(i)
	u := unit{students: c.students}
	start := time.Now()
	root := rec.startRun("course.run", i)
	t0 := time.Now()
	var s *core.Summary
	var err error
	if rec == nil {
		s, err = core.Planner{Students: c.students, Seed: seed}.Run()
	} else {
		s, err = plannerSteps(rec, c.students, seed)
	}
	u.ops = append(u.ops, usSince(t0))
	u.call(err, false, fmt.Sprintf("Planner.Run seed %d", seed))
	if err != nil {
		rec.end(root)
		return u
	}
	h := sha256.New()
	read := func(span string, f func() (string, error)) {
		id := rec.begin(span)
		t0 := time.Now()
		out, err := f()
		u.reads = append(u.reads, usSince(t0))
		rec.end(id)
		u.call(err, false, span)
		io.WriteString(h, out)
	}
	read("report.render", func() (string, error) { return report.Table1(s.Labs) })
	read("report.render", func() (string, error) { return report.Fig1(s.Labs), nil })
	read("report.render", func() (string, error) { return report.Fig2(s.Labs, cost.AWS) })
	read("report.render", func() (string, error) { return report.Fig2(s.Labs, cost.GCP) })
	// Fig3 orders rows with equal hours by map iteration, so its lines
	// enter the digest sorted.
	read("report.render", func() (string, error) { return sortedLines(report.Fig3(s.Projects)), nil })
	read("core.capacity", func() (string, error) {
		return strings.Join(core.QuotaCheck(core.PeakConcurrency(s.Labs), cloud.CourseQuota()), "\n"), nil
	})
	read("core.capacity", func() (string, error) { return fmt.Sprint(core.PlanReservations(c.students)), nil })
	rec.end(root)
	u.wall = time.Since(start)

	writeSummary(h, s)
	u.digest = hex.EncodeToString(h.Sum(nil))[:16]
	c.checkSummary(&u, s, seed)
	if rec != nil {
		c.probe(&u, rec, s.Labs)
	}
	return u
}

// plannerSteps is core.Planner.Run made of its public steps, one span
// each, so the traced run attributes time to studentsim and cost. Its
// Summary must equal Planner.Run's, which the digest comparison checks.
func plannerSteps(rec *recorder, students int, seed uint64) (*core.Summary, error) {
	id := rec.begin("studentsim.labs")
	labs, err := studentsim.SimulateLabs(studentsim.Config{Students: students, Seed: seed})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("studentsim.projects")
	projects := studentsim.SimulateProjects(studentsim.ProjectConfig{Seed: seed})
	rec.end(id)

	id = rec.begin("cost.price")
	defer rec.end(id)
	s := &core.Summary{
		Labs:             labs,
		Projects:         projects,
		LabInstanceHours: labs.TotalInstanceHours(),
		LabFIPHours:      labs.TotalFIPHours(),
	}
	var usages []cost.LabUsage
	for _, row := range course.Rows() {
		usages = append(usages, cost.LabUsage{
			RowID:         row.ID,
			InstanceHours: labs.RowInstanceHours[row.ID],
			FIPHours:      labs.RowFIPHours[row.ID],
		})
	}
	if s.LabCostAWS, err = cost.LabCost(usages, cost.AWS); err != nil {
		return nil, err
	}
	if s.LabCostGCP, err = cost.LabCost(usages, cost.GCP); err != nil {
		return nil, err
	}
	if s.ProjectCostAWS, err = cost.ProjectCost(projects.Usage, cost.AWS); err != nil {
		return nil, err
	}
	if s.ProjectCostGCP, err = cost.ProjectCost(projects.Usage, cost.GCP); err != nil {
		return nil, err
	}
	n := float64(labs.Config.Students)
	s.PerStudentAWS = (s.LabCostAWS + s.ProjectCostAWS) / n
	s.PerStudentGCP = (s.LabCostGCP + s.ProjectCostGCP) / n
	paper := course.Paper()
	if s.Fig2AWS, err = studentsim.Fig2(labs, cost.AWS, paper.ExpectedLabCostAWS); err != nil {
		return nil, err
	}
	if s.Fig2GCP, err = studentsim.Fig2(labs, cost.GCP, paper.ExpectedLabCostGCP); err != nil {
		return nil, err
	}
	return s, nil
}

// sortedLines returns s with its lines in sorted order.
func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// writeSummary adds the headline numbers to the run digest.
func writeSummary(h hash.Hash, s *core.Summary) {
	fmt.Fprintf(h, "%.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g %.9g\n",
		s.LabInstanceHours, s.LabFIPHours, s.TotalHours(),
		s.LabCostAWS, s.LabCostGCP, s.ProjectCostAWS, s.ProjectCostGCP,
		s.PerStudentAWS, s.PerStudentGCP)
	fmt.Fprintf(h, "%+v\n%+v\n", s.Fig2AWS, s.Fig2GCP)
}

func (c *courseWL) checkSummary(u *unit, s *core.Summary, seed uint64) {
	if c.paper {
		u.check(math.Abs(s.LabInstanceHours-paperLabHours) <= paperHoursBand*paperLabHours,
			"seed %d: lab instance-hours %.0f outside ±%.1f%% of %.0f", seed, s.LabInstanceHours, 100*paperHoursBand, paperLabHours)
		for _, v := range []float64{s.PerStudentAWS, s.PerStudentGCP} {
			u.check(v >= paperCostLo && v <= paperCostHi,
				"seed %d: per-student cost $%.2f outside [$%.0f, $%.0f]", seed, v, paperCostLo, paperCostHi)
		}
		return
	}
	want := paperLabHours / paperStudents
	got := s.LabInstanceHours / float64(c.students)
	u.check(math.Abs(got-want) <= cohortHoursBand*want,
		"seed %d: per-student lab hours %.2f outside ±%.1f%% of the paper's %.2f", seed, got, 100*cohortHoursBand, want)
}

// probe records the simulated counts of the run and times seeded
// FindSlot queries against the populated lease service.
func (c *courseWL) probe(u *unit, rec *recorder, labs *studentsim.Result) {
	reservations := 0
	for _, nt := range c.reserved {
		reservations += len(labs.Lease.Reservations(nt))
	}
	u.counts = map[string]float64{
		"simclock.events":     float64(labs.Clock.Executed()),
		"cloud.meter_records": float64(len(labs.Cloud.Meter().Records(nil))),
		"lease.reservations":  float64(reservations),
	}
	for _, q := range c.probes {
		id := rec.begin("lease.find_slot")
		_, err := labs.Lease.FindSlot(q.nodeType, q.earliest, q.duration, q.horizon)
		rec.end(id)
		u.call(err, errors.Is(err, lease.ErrNoNodeFree), "lease.FindSlot")
	}
}

func (c *courseWL) layers(traced []unit, spans []span, self []int64) map[string]float64 {
	m := map[string]float64{
		"studentsim.labs_ms":     median(perRun(spans, self, "studentsim.labs")),
		"studentsim.projects_ms": median(perRun(spans, self, "studentsim.projects")),
		"cost.price_ms":          median(perRun(spans, self, "cost.price")),
		"report.render_ms":       median(perRun(spans, self, "report.render")),
		"core.capacity_ms":       median(perRun(spans, self, "core.capacity")),
		"lease.find_slot_us":     median(perCall(spans, self, "lease.find_slot")),
	}
	labs := perRun(spans, self, "studentsim.labs")
	var nsPerEvent []float64
	for i, u := range traced {
		if i < len(labs) && u.counts["simclock.events"] > 0 {
			nsPerEvent = append(nsPerEvent, labs[i]*1e6/u.counts["simclock.events"])
		}
	}
	m["simclock.ns_per_event"] = median(nsPerEvent)
	// Counts come from the first run, whose seed every invocation with
	// the same workload seed shares.
	for k, v := range traced[0].counts {
		m[k] = v
	}
	return m
}
