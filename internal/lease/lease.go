// Package lease implements the Blazar-style advance-reservation service
// that Chameleon uses for bare-metal and edge nodes. Reservations are the
// reason the paper's Fig. 1b actuals track expected durations: leased
// instances terminate automatically when the reservation ends, unlike
// on-demand VMs which persist until a student remembers to delete them.
//
// The course workflow modeled here (Section 4 of the paper): course staff
// reserve specific GPU node types for week-long blocks aligned with the
// schedule; students then book short (2–3 hour) slots on those nodes
// without contending with other testbed users.
package lease

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Errors returned by the service.
var (
	ErrNoPool      = errors.New("lease: no pool for node type")
	ErrNoNodeFree  = errors.New("lease: no node free in the requested window")
	ErrNotFound    = errors.New("lease: reservation not found")
	ErrBadWindow   = errors.New("lease: reservation end must be after start")
	ErrPastStart   = errors.New("lease: reservation starts in the past")
	ErrOutsideHold = errors.New("lease: window not inside any staff hold")
)

// Reservation is a booked window on one node. When the service has a
// cloud attached, an instance is launched at Start and force-deleted at
// End (automatic termination).
type Reservation struct {
	ID       string
	Project  string
	User     string
	NodeType string
	Node     string
	Start    float64
	End      float64
	Tags     map[string]string

	// InstanceID is set once the reservation activates with a cloud
	// attached.
	InstanceID string
	Cancelled  bool

	// Tracing handles (nil when the service has no tracer): the root span
	// covers the whole reservation, waitSpan the booking→activation wait,
	// activeSpan the activation→termination window. All are read and
	// written under the service mutex.
	span       *trace.Span
	waitSpan   *trace.Span
	activeSpan *trace.Span
}

// Hours returns the booked duration.
func (r *Reservation) Hours() float64 { return r.End - r.Start }

// pool tracks the reservable nodes of one type and their bookings.
type pool struct {
	flavor cloud.Flavor
	nodes  []string
	// byNode holds reservations per node, sorted by start. Each list's
	// windows are disjoint (tryBookLocked only books a free node), so its
	// ends are sorted too and the gaps between them are the node's free
	// time; nodeFree and earliestLocked binary-search on that.
	byNode map[string][]*Reservation
	// holds are staff blocks restricting access; if non-empty, student
	// bookings must fall entirely inside one hold.
	holds []window
}

type window struct{ start, end float64 }

// Service is the reservation API for one site.
type Service struct {
	mu     sync.Mutex
	clock  *simclock.Clock
	cloud  *cloud.Cloud       // optional: enables auto launch/terminate
	tel    *telemetry.Bus     // nil disables instrumentation
	tracer *trace.Tracer      // nil disables tracing
	log    *logging.Component // "lease" stream; nil no-ops
	pools  map[string]*pool
	all    map[string]*Reservation
	nextID int
}

// New returns a lease service. cl may be nil; then reservations are
// calendar-only (no instance lifecycle side effects).
func New(clock *simclock.Clock, cl *cloud.Cloud) *Service {
	return &Service{clock: clock, cloud: cl,
		pools: map[string]*pool{}, all: map[string]*Reservation{}}
}

// SetTelemetry attaches a telemetry bus; bookings, rejections, and the
// reservation lifecycle (activate/expire/cancel) are instrumented. Call
// before concurrent use.
func (s *Service) SetTelemetry(b *telemetry.Bus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = b
}

// SetLogging attaches the structured logger: bookings, rejections, and
// the reservation lifecycle leave queryable "lease" log lines. Call
// before concurrent use.
func (s *Service) SetLogging(lg *logging.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = lg.Component("lease")
}

// SetTracer attaches a tracer: every booking becomes a trace
// ("lease <id>") spanning reservation → activation → auto-termination,
// with the cloud launch call and instance lifetime as child spans. Call
// before concurrent use.
func (s *Service) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// AddPool registers n reservable nodes of the given type. When a cloud is
// attached, matching bare-metal hosts are registered there too so leased
// instances have somewhere to land.
func (s *Service) AddPool(flavor cloud.Flavor, n int) {
	s.mu.Lock()
	p := &pool{flavor: flavor, byNode: map[string][]*Reservation{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%02d", flavor.Name, i)
		p.nodes = append(p.nodes, name)
	}
	s.pools[flavor.Name] = p
	s.mu.Unlock()
	if s.cloud != nil {
		s.cloud.AddBareMetal(n, flavor)
	}
}

// AddStaffHold records a staff block [start, end) on a node type during
// which students may book; outside holds, booking on that type fails.
// This mirrors the paper's arrangement where Chameleon staff temporarily
// restricted GPU nodes to the course project for week-long windows.
func (s *Service) AddStaffHold(nodeType string, start, end float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[nodeType]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoPool, nodeType)
	}
	p.holds = append(p.holds, window{start, end})
	return nil
}

// Spec describes a booking request.
type Spec struct {
	Project  string
	User     string
	NodeType string
	Start    float64
	End      float64
	Tags     map[string]string
}

// Book reserves any free node of the requested type for [Start, End).
// If the pool has staff holds, the window must fall inside one.
func (s *Service) Book(spec Spec) (*Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bookLocked(spec)
}

func (s *Service) bookLocked(spec Spec) (*Reservation, error) {
	r, err := s.tryBookLocked(spec)
	if err != nil {
		if s.tel != nil {
			s.tel.Counter("lease.rejections").Inc()
			s.tel.Emit("lease.reject",
				telemetry.String("node_type", spec.NodeType),
				telemetry.String("user", spec.User),
				telemetry.String("reason", err.Error()))
		}
		s.log.Warn("booking rejected",
			logging.Str("node_type", spec.NodeType),
			logging.Str("user", spec.User),
			logging.Str("reason", err.Error()))
		return nil, err
	}
	if s.tel != nil {
		s.tel.Counter("lease.bookings").Inc()
		s.tel.Counter(telemetry.Labeled("lease.bookings",
			telemetry.String("node_type", r.NodeType),
			telemetry.String("project", r.Project))).Inc()
		s.tel.Histogram("lease.duration_hours", telemetry.LinearBuckets(1, 1, 12)).Observe(r.Hours())
		s.tel.Emit("lease.book",
			telemetry.String("id", r.ID),
			telemetry.String("node_type", r.NodeType),
			telemetry.String("node", r.Node),
			telemetry.String("user", r.User),
			telemetry.Float("start", r.Start),
			telemetry.Float("end", r.End))
	}
	s.log.InfoT(r.span, "reservation booked",
		logging.Str("id", r.ID),
		logging.Str("node", r.Node),
		logging.Float("start", r.Start),
		logging.Float("end", r.End))
	return r, nil
}

func (s *Service) tryBookLocked(spec Spec) (*Reservation, error) {
	// Negated so a NaN bound is rejected too: it would break the sorted,
	// disjoint per-node lists the slot search relies on.
	if !(spec.End > spec.Start) {
		return nil, ErrBadWindow
	}
	// The lifecycle is driven by clock events; scheduling one in the past
	// would panic the clock, so reject it here as a booking error.
	if now := s.clock.Now(); spec.Start < now {
		return nil, fmt.Errorf("%w: start %.1f < now %.1f", ErrPastStart, spec.Start, now)
	}
	p, ok := s.pools[spec.NodeType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPool, spec.NodeType)
	}
	if len(p.holds) > 0 && !insideAnyHold(p.holds, spec.Start, spec.End) {
		return nil, fmt.Errorf("%w: [%.1f, %.1f) on %s", ErrOutsideHold, spec.Start, spec.End, spec.NodeType)
	}
	node := ""
	for _, n := range p.nodes {
		if nodeFree(p.byNode[n], spec.Start, spec.End) {
			node = n
			break
		}
	}
	if node == "" {
		return nil, fmt.Errorf("%w: %s [%.1f, %.1f)", ErrNoNodeFree, spec.NodeType, spec.Start, spec.End)
	}
	s.nextID++
	// Copy the caller's tag map: reservations (and the usage records
	// attributed from them) must not change retroactively if the caller
	// reuses or mutates its map after booking.
	r := &Reservation{
		ID:      fmt.Sprintf("lease-%06d", s.nextID),
		Project: spec.Project, User: spec.User,
		NodeType: spec.NodeType, Node: node,
		Start: spec.Start, End: spec.End,
		Tags: copyTags(spec.Tags),
	}
	p.byNode[node] = insertSorted(p.byNode[node], r)
	s.all[r.ID] = r
	// The trace starts at booking: the paper's cost question ("why did
	// this slot cost what it cost") begins when the student books, not
	// when the node activates.
	r.span = s.tracer.StartTrace("lease "+r.ID,
		telemetry.String("user", r.User),
		telemetry.String("node_type", r.NodeType),
		telemetry.String("node", r.Node))
	r.waitSpan = r.span.StartChild("lease.wait")
	s.scheduleLifecycleLocked(r)
	return r, nil
}

// scheduleLifecycleLocked arms the launch/terminate events when a cloud
// is attached. The instance launches with the pool's flavor, the one its
// bare-metal hosts were registered with.
func (s *Service) scheduleLifecycleLocked(r *Reservation) {
	if s.cloud == nil {
		return
	}
	p := s.pools[r.NodeType]
	var start func(retries int)
	start = func(retries int) {
		s.mu.Lock()
		cancelled := r.Cancelled
		span, waitSpan := r.span, r.waitSpan
		s.mu.Unlock()
		if cancelled {
			return
		}
		inst, err := s.cloud.Launch(cloud.LaunchSpec{
			Project: r.Project,
			Name:    fmt.Sprintf("%s-%s", r.User, r.NodeType),
			Flavor:  p.flavor,
			Tags:    r.Tags,
			Span:    span,
		})
		if errors.Is(err, cloud.ErrNoCapacity) && retries > 0 {
			// Back-to-back reservations share a boundary instant: the
			// predecessor's auto-delete event is queued at the same
			// virtual time but may not have run yet. Requeue at the same
			// timestamp; the delete (already enqueued) runs first.
			s.clock.At(s.clock.Now(), "lease.retry "+r.ID, func() { start(retries - 1) })
			return
		}
		if err != nil {
			// Pool accounting used to guarantee capacity here, but hosts
			// can crash now (cloud.FailHost / the chaos engine), so a
			// failed activation is a legitimate outcome: record it and
			// leave the reservation instance-less instead of panicking.
			// Students saw exactly this on Chameleon when a reserved node
			// died before their slot.
			if s.tel != nil {
				s.tel.Counter("lease.launch_failures").Inc()
				s.tel.Emit("lease.launch_fail",
					telemetry.String("id", r.ID),
					telemetry.String("node", r.Node),
					telemetry.String("reason", err.Error()),
					telemetry.Float("t", s.clock.Now()))
			}
			s.log.ErrorT(span, "reserved node failed to activate",
				logging.Str("id", r.ID),
				logging.Str("node", r.Node),
				logging.Str("reason", err.Error()))
			now := s.clock.Now()
			waitSpan.Annotate(telemetry.String("error", err.Error()))
			waitSpan.FinishAt(now)
			span.Annotate(telemetry.String("error", err.Error()))
			span.FinishAt(now)
			return
		}
		now := s.clock.Now()
		waitSpan.Annotate(telemetry.String("instance", inst.ID))
		waitSpan.FinishAt(now)
		active := span.StartChildAt("lease.active", now,
			telemetry.String("instance", inst.ID))
		s.mu.Lock()
		r.InstanceID = inst.ID
		r.activeSpan = active
		s.mu.Unlock()
		if s.tel != nil {
			s.tel.Counter("lease.activations").Inc()
			s.tel.Emit("lease.activate",
				telemetry.String("id", r.ID),
				telemetry.String("node", r.Node),
				telemetry.String("instance", inst.ID),
				telemetry.Float("t", s.clock.Now()))
		}
		s.log.InfoT(active, "reservation active",
			logging.Str("id", r.ID),
			logging.Str("node", r.Node),
			logging.Str("instance", inst.ID))
		// Automatic termination at reservation end: the defining
		// difference from on-demand instances.
		s.cloud.DeleteAt(inst.ID, r.End)
		s.clock.At(r.End, "lease.expire "+r.ID, func() {
			s.mu.Lock()
			cancelled := r.Cancelled
			root, active := r.span, r.activeSpan
			s.mu.Unlock()
			if cancelled {
				return
			}
			if s.tel != nil {
				s.tel.Counter("lease.expiries").Inc()
				s.tel.Emit("lease.expire",
					telemetry.String("id", r.ID),
					telemetry.String("node", r.Node),
					telemetry.String("instance", inst.ID),
					telemetry.Float("t", s.clock.Now()))
			}
			s.log.Info("reservation expired",
				logging.Str("id", r.ID),
				logging.Str("node", r.Node))
			active.FinishAt(s.clock.Now())
			root.FinishAt(s.clock.Now())
		})
	}
	s.clock.At(r.Start, "lease.start "+r.ID, func() { start(8) })
}

// Cancel withdraws a reservation. Cancelling after activation deletes the
// backing instance immediately.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	r, ok := s.all[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r.Cancelled = true
	p := s.pools[r.NodeType]
	list := p.byNode[r.Node]
	for i, x := range list {
		if x.ID == id {
			p.byNode[r.Node] = append(list[:i], list[i+1:]...)
			break
		}
	}
	delete(s.all, id)
	instID := r.InstanceID
	root, wait, active := r.span, r.waitSpan, r.activeSpan
	s.mu.Unlock()
	if instID != "" && s.cloud != nil {
		_ = s.cloud.Delete(instID)
	}
	// Finish whatever phase the reservation was in; Finish is idempotent,
	// so cancelling an already-expired lease changes nothing.
	now := s.clock.Now()
	wait.FinishAt(now)
	active.FinishAt(now)
	root.Annotate(telemetry.String("outcome", "cancelled"))
	root.FinishAt(now)
	if s.tel != nil {
		s.tel.Counter("lease.cancellations").Inc()
		s.tel.Emit("lease.cancel",
			telemetry.String("id", id),
			telemetry.Float("t", s.clock.Now()))
	}
	return nil
}

// Get returns a reservation by ID.
func (s *Service) Get(id string) (*Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.all[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return r, nil
}

// FindSlot returns the earliest start >= earliest at which some node of
// nodeType is free for duration hours (and, if holds exist, the window
// fits in a hold). It returns an error if no slot exists before horizon.
// Each node's bookings are sorted by start and disjoint, so the search
// walks each node's gaps instead of testing every booking end against
// every node: the answer is max(gap start, earliest, hold start) for a
// node's first gap and hold that fit (see earliestLocked). It allocates
// nothing when a slot is found.
func (s *Service) FindSlot(nodeType string, earliest, duration, horizon float64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[nodeType]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoPool, nodeType)
	}
	return earliestLocked(p, earliest, duration, horizon)
}

// BookEarliest finds the earliest feasible slot and books it, a common
// studentsim operation. The search and the booking happen under one hold
// of the service lock, so a concurrent Book cannot take the slot between
// them.
func (s *Service) BookEarliest(spec Spec, duration, horizon float64) (*Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[spec.NodeType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPool, spec.NodeType)
	}
	start, err := earliestLocked(p, spec.Start, duration, horizon)
	if err != nil {
		return nil, err
	}
	spec.Start = start
	spec.End = start + duration
	return s.bookLocked(spec)
}

// earliestLocked returns the earliest start >= earliest at which some node
// of p is free for d hours, with start+d <= horizon and, if p has holds,
// the window inside one hold.
//
// A node's free time is the gaps between its sorted, disjoint bookings,
// so its earliest feasible start is max(gap start, earliest, hold start)
// for its first gap and hold that fit the window. Every such value is a
// booking end, earliest or a hold start: exactly the candidates a scan of
// all booking ends would test, so the result is the same float.
func earliestLocked(p *pool, earliest, d, horizon float64) (float64, error) {
	if !(d > 0) || math.IsNaN(earliest) || math.IsNaN(horizon) {
		return 0, fmt.Errorf("%w: %.1fh slot from %.1f before %.1f", ErrBadWindow, d, earliest, horizon)
	}
	holds := p.holds
	if len(holds) == 0 {
		holds = anytime
	}
	best, found := 0.0, false
	for _, n := range p.nodes {
		list := p.byNode[n]
		// Bookings ending before earliest bound no gap after it.
		i := sort.Search(len(list), func(i int) bool { return list[i].End >= earliest })
		// Each gap starts later than the one before, so stop once a gap
		// cannot beat the best start or fit before the horizon.
		for gapStart := earliest; (!found || gapStart < best) && gapStart+d <= horizon; i++ {
			gapEnd := horizon
			if i < len(list) {
				gapEnd = min(list[i].Start, horizon)
			}
			if t, ok := fitGap(holds, gapStart, gapEnd, d); ok {
				if !found || t < best {
					best, found = t, true
				}
				break
			}
			if i == len(list) {
				break
			}
			gapStart = list[i].End
		}
	}
	if !found {
		return 0, fmt.Errorf("%w: %s for %.1fh before %.1f", ErrNoNodeFree, p.flavor.Name, d, horizon)
	}
	return best, nil
}

// anytime stands in for the holds of a pool that has none.
var anytime = []window{{math.Inf(-1), math.Inf(1)}}

// fitGap returns the earliest start t >= gapStart whose window [t, t+d)
// ends by gapEnd and lies inside one of holds.
func fitGap(holds []window, gapStart, gapEnd, d float64) (float64, bool) {
	best, ok := 0.0, false
	for _, h := range holds {
		t := gapStart
		if h.start > t {
			t = h.start
		}
		if end := t + d; end <= gapEnd && end <= h.end && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Utilization returns booked-hours / (nodes × window-hours) for a node
// type over [start, end).
func (s *Service) Utilization(nodeType string, start, end float64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[nodeType]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoPool, nodeType)
	}
	if end <= start || len(p.nodes) == 0 {
		return 0, nil
	}
	// Sum in sorted node order: float addition is not associative, so
	// map-order accumulation would make utilization run-dependent.
	nodes := make([]string, 0, len(p.byNode))
	for n := range p.byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var booked float64
	for _, n := range nodes {
		for _, r := range p.byNode[n] {
			lo, hi := r.Start, r.End
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if hi > lo {
				booked += hi - lo
			}
		}
	}
	return booked / (float64(len(p.nodes)) * (end - start)), nil
}

// Reservations returns all bookings for a node type, sorted by start.
func (s *Service) Reservations(nodeType string) []*Reservation {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[nodeType]
	if !ok {
		return nil
	}
	var out []*Reservation
	for _, list := range p.byNode {
		out = append(out, list...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// nodeFree reports whether [start, end) overlaps no booking in list. The
// list is sorted by start and its windows are disjoint, so their ends are
// sorted too: only the last booking starting before end can reach into
// the window, and it does unless it ends by start.
func nodeFree(list []*Reservation, start, end float64) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i].Start >= end })
	return i == 0 || list[i-1].End <= start
}

func insideAnyHold(holds []window, start, end float64) bool {
	for _, h := range holds {
		if start >= h.start && end <= h.end {
			return true
		}
	}
	return false
}

func copyTags(tags map[string]string) map[string]string {
	out := map[string]string{}
	for k, v := range tags {
		out[k] = v
	}
	return out
}

func insertSorted(list []*Reservation, r *Reservation) []*Reservation {
	i := sort.Search(len(list), func(i int) bool { return list[i].Start >= r.Start })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = r
	return list
}
