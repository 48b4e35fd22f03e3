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
	"time"

	"repro/internal/alert"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/course"
	"repro/internal/flightrec"
	"repro/internal/lease"
	"repro/internal/logging"
	"repro/internal/report"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tsdb"
)

const (
	// platformTenants and sessionsPerTenant set the scenario's load: 60
	// students each deploying two lab sessions within platformHorizon,
	// a compressed slice of the term in which every lab is in progress.
	platformTenants   = 60
	sessionsPerTenant = 2
	platformHorizon   = 12.0 // simulated hours of tenant activity
	tickHours         = 0.25 // scrape and alert-evaluation interval
	readEvery         = 4    // operator reads every readEvery ticks (1 sim-hour)
	project           = "sandbox"
	spotPoolSize      = 2
)

// queries are the PromQL-lite expressions the operator reads, in turn.
var queries = []string{
	`sum(rate(cloud.launches[1h]))`,
	`cloud.instances_active`,
	`sum(increase(tenant.calls[1h]))`,
}

type actKind int

const (
	actLaunch actKind = iota
	actFIP
	actFIPRelease
	actDelete
	actReserve
)

var actNames = [...]string{"launch", "fip", "fip_release", "delete", "reserve"}

// action is one scripted tenant call at a fixed simulated time. Slot
// names the tenant's instance (and floating IP) within the scenario.
type action struct {
	at         float64
	kind       actKind
	tenant     int
	slot       int
	flavor     cloud.Flavor
	start, end float64 // reservation window
}

// script is one scenario's generated tenant calls, sorted by time.
type script struct {
	actions []action
	slots   int
}

// sessionWeights returns, per Table-1 row, the relative number of
// deployments a student makes: the row's measured hours per student
// divided by the hours one deployment runs. Sessions drawn with these
// weights and lasting ExpectedHours on average reproduce Table 1's
// instance-hour mix (m1.medium ≈86% of lab hours).
func sessionWeights(rows []course.Row) []float64 {
	w := make([]float64, len(rows))
	for i, row := range rows {
		w[i] = row.TargetHours / (row.ExpectedHours * float64(row.VMsPerStudent))
	}
	return w
}

// genScript draws a scenario from seed. Every tenant (a student) runs
// sessionsPerTenant lab sessions, each of a Table-1 row drawn by
// sessionWeights. An on-demand row launches VMsPerStudent instances of
// its flavor with one floating IP for the deployment (Table 1's FIP
// hours are one per deployment) and deletes them after an exponential
// duration with mean ExpectedHours. A reserved row books its node type
// for one slot of SlotHours at the next slot boundary; the lease
// launches and deletes the instance itself.
func genScript(seed uint64) script {
	r := splitmix64{s: seed}
	rows := course.Rows()
	weights := sessionWeights(rows)
	var sc script
	for t := 0; t < platformTenants; t++ {
		for k := 0; k < sessionsPerTenant; k++ {
			row := rows[r.pick(weights)]
			if row.Reserved() {
				at := r.uniform(0, platformHorizon-row.SlotHours)
				start := (math.Floor(at/row.SlotHours) + 1) * row.SlotHours
				sc.actions = append(sc.actions, action{at: at, kind: actReserve, tenant: t,
					flavor: row.Flavor, start: start, end: start + row.SlotHours})
				continue
			}
			start := r.uniform(0, platformHorizon)
			end := math.Min(start+r.expo(row.ExpectedHours), platformHorizon)
			first := sc.slots
			for v := 0; v < row.VMsPerStudent; v++ {
				sc.actions = append(sc.actions, action{at: start, kind: actLaunch, tenant: t,
					slot: sc.slots, flavor: row.Flavor})
				sc.slots++
			}
			// Equal times keep this order: the sort below is stable.
			sc.actions = append(sc.actions,
				action{at: start, kind: actFIP, tenant: t, slot: first},
				action{at: end, kind: actFIPRelease, tenant: t, slot: first})
			for v := first; v < sc.slots; v++ {
				sc.actions = append(sc.actions, action{at: end, kind: actDelete, tenant: t, slot: v})
			}
		}
	}
	sort.SliceStable(sc.actions, func(i, j int) bool { return sc.actions[i].at < sc.actions[j].at })
	return sc
}

var platformPools, platformNodes = leasePools()

// leasePools sizes one lease pool per reserved node type as the course
// staff would for platformTenants students (core.PlanReservations),
// summing the rows that share a node type.
func leasePools() ([]cloud.Flavor, map[string]int) {
	flavors := map[string]cloud.Flavor{}
	for _, row := range course.Rows() {
		flavors[row.Flavor.Name] = row.Flavor
	}
	var order []cloud.Flavor
	nodes := map[string]int{}
	for _, plan := range core.PlanReservations(platformTenants) {
		if _, ok := nodes[plan.NodeType]; !ok {
			order = append(order, flavors[plan.NodeType])
		}
		nodes[plan.NodeType] += plan.Nodes
	}
	return order, nodes
}

// stack is the chameleonctl platform wired from public constructors,
// except that the benchmark drives scrapes and alert steps itself.
type stack struct {
	clk    *simclock.Clock
	bus    *telemetry.Bus
	logger *logging.Logger
	cl     *cloud.Cloud
	market *cloud.SpotMarket
	tracer *trace.Tracer
	ls     *lease.Service
	coll   *tsdb.Collector
	db     *tsdb.DB
	eng    *alert.Engine
	chaos  *chaos.Engine
	rec    *flightrec.Recorder
}

func wire(seed uint64) *stack {
	s := &stack{clk: simclock.New(), bus: telemetry.New()}
	s.logger = logging.New(seed, s.clk.Now)
	s.logger.SetTelemetry(s.bus)
	s.cl = cloud.New("kvm@bench", s.clk)
	s.cl.SetTelemetry(s.bus)
	s.cl.SetLogging(s.logger)
	s.cl.AddVMCapacity(8, 48, 192)
	s.cl.CreateProject(project, cloud.CourseQuota())
	s.market = s.cl.EnableSpot(2.0 / 60)
	s.market.AddPool(cloud.GPUA100PCIe, spotPoolSize, cost.GenerateSpotPrices(seed+1, cost.SpotSpec{
		OnDemandPerHour: 3.307, Volatility: 0.25, Horizon: 72}))
	s.market.AddPool(cloud.ComputeLiqid, spotPoolSize, cost.GenerateSpotPrices(seed+2, cost.SpotSpec{
		OnDemandPerHour: 1.212, Volatility: 0.25, Horizon: 72}))
	s.tracer = trace.New(seed, s.clk.Now)
	s.tracer.SetTelemetry(s.bus)
	s.ls = lease.New(s.clk, s.cl)
	s.ls.SetTelemetry(s.bus)
	s.ls.SetTracer(s.tracer)
	s.ls.SetLogging(s.logger)
	for _, f := range platformPools {
		s.ls.AddPool(f, platformNodes[f.Name])
	}
	s.coll = tsdb.NewCollector(tsdb.New(tsdb.Options{}), s.bus, tickHours)
	s.db = s.coll.DB()
	s.eng = alert.NewEngine(s.db)
	s.eng.AddRule(alert.Rule{Name: "HostDown", Expr: "cloud.hosts_down > 0", For: 0, Severity: "page"})
	s.eng.AddSLO(alert.SLO{Name: "tenant-calls", Objective: 0.95,
		Good: `tenant.calls{outcome="ok"}`, Total: "tenant.calls", Window: platformHorizon})
	var hosts []string
	for _, h := range s.cl.Hosts() {
		if h.Class == cloud.ClassVM {
			hosts = append(hosts, h.Name)
		}
	}
	s.chaos = chaos.New(s.clk, s.bus)
	s.chaos.SetHostFailer(s.cl)
	s.chaos.SetPreempter(s.market)
	s.chaos.SetLogging(s.logger)
	s.chaos.Arm(chaos.Generate(seed+3, chaos.GenSpec{
		Horizon: platformHorizon, Hosts: hosts, HostCrashMTBF: 4,
		SpotPools: []string{cloud.ComputeLiqid.Name, cloud.GPUA100PCIe.Name}, PreemptMTBF: 4,
		MeanRepairHours: 1,
	}))
	s.rec = flightrec.New(flightrec.Config{
		Engine: s.eng, DB: s.db, Logs: s.logger, Tracer: s.tracer, Chaos: s.chaos, Spot: s.market,
		Dashboard: func(at float64) string { return report.Dashboard(s.db, s.eng, at) },
	})
	s.rec.Arm()
	return s
}

// platformWL replays a seeded tenant script through a freshly wired
// stack per scenario, ticking monitoring and reading dashboards as an
// operator would.
type platformWL struct {
	seeds seedList
}

func newPlatform(seed uint64) workload { return &platformWL{seeds: seedList{base: seed}} }

func (p *platformWL) setup() error {
	u := p.run(-1, nil)
	if u.failed > 0 {
		return fmt.Errorf("warm-up scenario failed: %v", u.problems)
	}
	return nil
}

func (p *platformWL) finish() unit { return unit{} }

// slotState is what the tenant knows about one of its instances.
type slotState struct {
	inst, fip string
}

// replay carries one scenario's progress.
type replay struct {
	s        *stack
	rec      *recorder
	u        *unit
	h        hash.Hash
	slots    []slotState
	launches [2]int // attempted, accepted
	bookings [2]int
	reads    int
}

// timed runs f as one call inside span name and returns its latency in
// microseconds.
func (r *replay) timed(name string, f func()) float64 {
	id := r.rec.begin(name)
	t0 := time.Now()
	f()
	d := usSince(t0)
	r.rec.end(id)
	return d
}

func (r *replay) advance(t float64) {
	if t <= r.s.clk.Now() {
		return
	}
	r.timed("simclock.advance", func() { r.s.clk.RunUntil(t) })
}

// tick is one monitoring interval; every readEvery ticks the operator
// reads a query, the dashboard and the active alerts.
func (r *replay) tick(n int) {
	t := float64(n) * tickHours
	r.advance(t)
	r.timed("tsdb.scrape", func() { r.s.coll.Scrape(t) })
	r.timed("alert.step", func() { r.s.eng.Step(t) })
	if n%readEvery != 0 {
		return
	}
	var out string
	var err error
	q := queries[r.reads%len(queries)]
	r.reads++
	r.u.reads = append(r.u.reads, r.timed("tsdb.query", func() {
		var v tsdb.Value
		if v, err = r.s.db.Query(q, t); err == nil {
			out = tsdb.FormatValue(v)
		}
	}))
	r.u.call(err, false, "query "+q)
	io.WriteString(r.h, out)
	r.u.reads = append(r.u.reads, r.timed("report.dashboard", func() { out = report.Dashboard(r.s.db, r.s.eng, t) }))
	r.u.call(nil, false, "dashboard")
	io.WriteString(r.h, out)
	r.u.reads = append(r.u.reads, r.timed("alert.active", func() { out = report.Alerts(r.s.eng.Active(), r.s.eng.Timeline()) }))
	r.u.call(nil, false, "alerts")
	io.WriteString(r.h, out)
}

// do issues one tenant call. A call on a slot whose launch was refused
// is not issued: the tenant has nothing to act on.
func (r *replay) do(a action) {
	sl := &r.slots[a.slot]
	var err error
	var expected bool
	var lat float64
	switch a.kind {
	case actLaunch:
		var inst *cloud.Instance
		name := fmt.Sprintf("t%d-s%d", a.tenant, a.slot)
		lat = r.timed("cloud.launch", func() {
			root := r.s.tracer.StartTrace("api.launch", telemetry.String("flavor", a.flavor.Name))
			inst, err = r.s.cl.Launch(cloud.LaunchSpec{Project: project, Name: name,
				Flavor: a.flavor, Span: root})
			if err != nil {
				root.Annotate(telemetry.String("error", err.Error()))
			}
			root.Finish()
		})
		var qe *cloud.QuotaError
		expected = errors.As(err, &qe) || errors.Is(err, cloud.ErrNoCapacity)
		r.launches[0]++
		if err == nil {
			r.launches[1]++
			sl.inst = inst.ID
		}
	case actFIP:
		if sl.inst == "" {
			return
		}
		lat = r.timed("cloud.fip", func() {
			var f *cloud.FloatingIP
			if f, err = r.s.cl.AllocateFloatingIP(project, nil); err != nil {
				return
			}
			sl.fip = f.ID
			err = r.s.cl.AssociateFloatingIP(f.ID, sl.inst)
		})
		var qe *cloud.QuotaError
		expected = errors.As(err, &qe)
	case actFIPRelease:
		if sl.fip == "" {
			return
		}
		lat = r.timed("cloud.fip", func() { err = r.s.cl.ReleaseFloatingIP(sl.fip) })
		sl.fip = ""
	case actDelete:
		if sl.inst == "" {
			return
		}
		lat = r.timed("cloud.delete", func() { err = r.s.cl.Delete(sl.inst) })
		sl.inst = ""
	case actReserve:
		spec := lease.Spec{Project: project, User: fmt.Sprintf("t%d", a.tenant),
			NodeType: a.flavor.Name, Start: a.start, End: a.end}
		lat = r.timed("lease.book", func() { _, err = r.s.ls.Book(spec) })
		expected = errors.Is(err, lease.ErrNoNodeFree)
		r.bookings[0]++
		if err == nil {
			r.bookings[1]++
		}
	}
	r.u.ops = append(r.u.ops, lat)
	r.u.call(err, expected, actNames[a.kind])
	outcome := "ok"
	if err != nil {
		outcome = "refused"
	}
	r.s.bus.Counter(telemetry.Labeled("tenant.calls",
		telemetry.String("op", actNames[a.kind]), telemetry.String("outcome", outcome))).Inc()
	fmt.Fprintf(r.h, "%s:%d:%s\n", actNames[a.kind], a.slot, outcome)
}

func (p *platformWL) run(i int, rec *recorder) unit {
	seed := p.seeds.at(i)
	sc := genScript(seed)
	u := unit{students: platformTenants}
	start := time.Now()
	root := rec.startRun("platform.scenario", i)
	id := rec.begin("platform.wire")
	s := wire(seed)
	rec.end(id)
	r := &replay{s: s, rec: rec, u: &u, h: sha256.New(), slots: make([]slotState, sc.slots)}
	n := 1
	for _, a := range sc.actions {
		for ; float64(n)*tickHours <= a.at; n++ {
			r.tick(n)
		}
		r.advance(a.at)
		r.do(a)
	}
	for ; float64(n)*tickHours <= platformHorizon; n++ {
		r.tick(n)
	}
	// Teardown: every tenant call is done; let leases expire and faults
	// recover, which returns preempted spot capacity.
	r.timed("simclock.advance", func() { s.clk.Run() })
	rec.end(root)
	u.wall = time.Since(start)

	p.check(r, seed)
	u.digest = hex.EncodeToString(r.h.Sum(nil))[:16]
	if rec != nil {
		u.counts = p.counts(r)
	}
	return u
}

// check verifies the invariants after teardown and adds the alert
// timeline, incident bundles and per-trace bill to the digest.
func (p *platformWL) check(r *replay, seed uint64) {
	s, u := r.s, r.u
	now := s.clk.Now()
	pr, err := s.cl.GetProject(project)
	u.call(err, false, "GetProject")
	if err == nil {
		u.check(pr.Usage == cloud.Usage{}, "seed %d: quota not released after teardown: %+v", seed, pr.Usage)
	}
	for _, h := range s.cl.Hosts() {
		u.check(!h.Down && h.InstanceCount() == 0 && h.FreeVCPUs() == h.VCPUs && h.FreeRAMGB() == h.RAMGB,
			"seed %d: host %s holds capacity after teardown (down=%v, %d instances, %d/%d vCPUs free)",
			seed, h.Name, h.Down, h.InstanceCount(), h.FreeVCPUs(), h.VCPUs)
	}
	for _, v := range s.market.Pools() {
		u.check(v.Active == 0 && v.Capacity == spotPoolSize,
			"seed %d: spot pool %s has %d active, capacity %d after teardown", seed, v.Pool, v.Active, v.Capacity)
	}
	recs := s.cl.Meter().Records(nil)
	rate := report.TraceRate(cost.AWS)
	rows := report.CostByTrace(recs, now, rate, s.tracer)
	var byTrace, total float64
	for _, row := range rows {
		byTrace += row.Dollars
	}
	for _, rc := range recs {
		total += rc.Hours(now) * rate(rc)
	}
	u.check(math.Round(byTrace*100) == math.Round(total*100),
		"seed %d: per-trace bill $%.4f != aggregate $%.4f", seed, byTrace, total)
	io.WriteString(r.h, alert.RenderTimeline(s.eng.Timeline()))
	incs := s.rec.Incidents()
	io.WriteString(r.h, report.IncidentList(incs))
	for _, inc := range incs {
		io.WriteString(r.h, report.Incident(inc))
	}
	io.WriteString(r.h, report.TraceCostTable(rows))
	fmt.Fprintf(r.h, "%.9g\n", total)
}

// counts reads the layers' own statistics after one scenario.
func (p *platformWL) counts(r *replay) map[string]float64 {
	s := r.s
	_, samples := s.coll.Stats()
	spans := 0
	for _, td := range s.tracer.Traces() {
		spans += len(td.Spans)
	}
	injected, _, _ := s.chaos.Stats()
	dropped := s.logger.Dropped()
	return map[string]float64{
		"simclock.events":     float64(s.clk.Executed()),
		"cloud.meter_records": float64(len(s.cl.Meter().Records(nil))),
		"cloud.accept_ratio":  float64(r.launches[1]) / float64(r.launches[0]),
		"lease.reservations":  float64(r.bookings[1]),
		"lease.accept_ratio":  float64(r.bookings[1]) / float64(r.bookings[0]),
		"tsdb.samples":        float64(samples),
		"tsdb.series":         float64(s.db.SeriesCount()),
		"alert.transitions":   float64(len(s.eng.Timeline())),
		"flightrec.incidents": float64(s.rec.Captures()),
		"logging.records":     float64(uint64(len(s.logger.Records(0))) + dropped),
		"logging.dropped":     float64(dropped),
		"trace.spans":         float64(spans),
		"chaos.faults":        float64(injected),
	}
}

func (p *platformWL) layers(traced []unit, spans []span, self []int64) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"cloud.launch", "cloud.delete", "lease.book", "simclock.advance",
		"tsdb.scrape", "alert.step", "tsdb.query", "report.dashboard"} {
		m[name+"_us"] = median(perCall(spans, self, name))
	}
	advance := perRun(spans, self, "simclock.advance")
	var nsPerEvent []float64
	for i, u := range traced {
		if i < len(advance) && u.counts["simclock.events"] > 0 {
			nsPerEvent = append(nsPerEvent, advance[i]*1e6/u.counts["simclock.events"])
		}
	}
	m["simclock.ns_per_event"] = median(nsPerEvent)
	for k, v := range traced[0].counts {
		m[k] = v
	}
	return m
}
