package lease

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

// overlaps reports whether [s1,e1) and [s2,e2) intersect.
func overlaps(s1, e1, s2, e2 float64) bool { return s1 < e2 && s2 < e1 }

func newSvc() (*Service, *cloud.Cloud, *simclock.Clock) {
	clk := simclock.New()
	cl := cloud.New("chi@test", clk)
	cl.CreateProject("class", cloud.CourseQuota())
	s := New(clk, cl)
	s.AddPool(cloud.GPUA100PCIe, 2)
	return s, cl, clk
}

func TestBookAndAutoTerminate(t *testing.T) {
	s, cl, clk := newSvc()
	r, err := s.Book(Spec{Project: "class", User: "s001", NodeType: "gpu_a100_pcie",
		Start: 2, End: 5, Tags: map[string]string{"lab": "lab4"}})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(3)
	inst, err := cl.Get(r.InstanceID)
	if err != nil {
		t.Fatalf("instance not launched at reservation start: %v", err)
	}
	if !inst.Running() {
		t.Fatal("instance not running mid-reservation")
	}
	clk.RunUntil(6)
	if inst.Running() {
		t.Fatal("instance not auto-terminated at reservation end")
	}
	if got := inst.HoursAt(clk.Now()); got != 3 {
		t.Errorf("leased instance hours = %v, want exactly 3 (auto-termination)", got)
	}
}

func TestNoDoubleBooking(t *testing.T) {
	s, _, _ := newSvc()
	// Pool has 2 nodes; book both for an overlapping window.
	for i := 0; i < 2; i++ {
		if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 10, End: 13}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 11, End: 12})
	if !errors.Is(err, ErrNoNodeFree) {
		t.Errorf("third overlapping booking err = %v, want ErrNoNodeFree", err)
	}
	// Adjacent (non-overlapping) window succeeds: [13,15) touches [10,13).
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 13, End: 15}); err != nil {
		t.Errorf("adjacent booking failed: %v", err)
	}
}

func TestBadWindowAndMissingPool(t *testing.T) {
	s, _, _ := newSvc()
	if _, err := s.Book(Spec{NodeType: "gpu_a100_pcie", Start: 5, End: 5}); !errors.Is(err, ErrBadWindow) {
		t.Errorf("zero window err = %v", err)
	}
	if _, err := s.Book(Spec{NodeType: "gpu_h100", Start: 1, End: 2}); !errors.Is(err, ErrNoPool) {
		t.Errorf("missing pool err = %v", err)
	}
}

func TestStaffHolds(t *testing.T) {
	s, _, _ := newSvc()
	if err := s.AddStaffHold("gpu_a100_pcie", 100, 268); err != nil { // one week
		t.Fatal(err)
	}
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 50, End: 53}); !errors.Is(err, ErrOutsideHold) {
		t.Errorf("booking outside hold err = %v, want ErrOutsideHold", err)
	}
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 120, End: 123}); err != nil {
		t.Errorf("booking inside hold failed: %v", err)
	}
	// Straddling the hold edge is rejected.
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 266, End: 270}); !errors.Is(err, ErrOutsideHold) {
		t.Errorf("straddling booking err = %v", err)
	}
}

func TestCancelBeforeStart(t *testing.T) {
	s, cl, clk := newSvc()
	r, _ := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 5, End: 8})
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(10)
	if n := len(cl.List(func(i *cloud.Instance) bool { return i.Running() })); n != 0 {
		t.Errorf("%d instances running after cancelled reservation", n)
	}
	// The freed window can be rebooked on the same node.
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 11, End: 12}); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel("lease-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel missing err = %v", err)
	}
}

func TestCancelAfterStartDeletesInstance(t *testing.T) {
	s, cl, clk := newSvc()
	r, _ := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 1, End: 10})
	clk.RunUntil(2)
	if r.InstanceID == "" {
		t.Fatal("reservation not activated")
	}
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	inst, _ := cl.Get(r.InstanceID)
	if inst.Running() {
		t.Error("instance still running after cancel")
	}
}

func TestFindSlotSkipsBusyWindows(t *testing.T) {
	s, _, _ := newSvc()
	// Fill both nodes over [0, 10).
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 10})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 10})
	start, err := s.FindSlot("gpu_a100_pcie", 0, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if start != 10 {
		t.Errorf("FindSlot = %v, want 10 (first free boundary)", start)
	}
	// Horizon too tight: no slot.
	if _, err := s.FindSlot("gpu_a100_pcie", 0, 3, 9); !errors.Is(err, ErrNoNodeFree) {
		t.Errorf("horizon-limited FindSlot err = %v", err)
	}
}

func TestFindSlotRespectsHolds(t *testing.T) {
	s, _, _ := newSvc()
	_ = s.AddStaffHold("gpu_a100_pcie", 50, 60)
	start, err := s.FindSlot("gpu_a100_pcie", 0, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if start != 50 {
		t.Errorf("FindSlot = %v, want 50 (hold start)", start)
	}
}

func TestBookEarliest(t *testing.T) {
	s, _, clk := newSvc()
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 4})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 6})
	r, err := s.BookEarliest(Spec{Project: "class", User: "s1", NodeType: "gpu_a100_pcie", Start: 0}, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 4 || r.End != 7 {
		t.Errorf("earliest slot = [%v, %v), want [4, 7)", r.Start, r.End)
	}
	clk.Run()
}

func TestUtilization(t *testing.T) {
	s, _, _ := newSvc()
	// 2 nodes over [0,10) = 20 node-hours; book 5.
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 0, End: 3})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 2, End: 4})
	u, err := s.Utilization("gpu_a100_pcie", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0.25 {
		t.Errorf("utilization = %v, want 0.25", u)
	}
	// Window clamping: only the overlap counts.
	u, _ = s.Utilization("gpu_a100_pcie", 2, 4)
	if u != 0.75 { // node A busy [2,3) + node B busy [2,4) = 3 of 4
		t.Errorf("clamped utilization = %v, want 0.75", u)
	}
}

func TestReservationsSorted(t *testing.T) {
	s, _, _ := newSvc()
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 5, End: 6})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 1, End: 2})
	_, _ = s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 3, End: 4})
	rs := s.Reservations("gpu_a100_pcie")
	if len(rs) != 3 {
		t.Fatalf("got %d reservations", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Start > rs[i].Start {
			t.Fatal("reservations not sorted")
		}
	}
}

func TestNoOverlapProperty(t *testing.T) {
	// Property: whatever sequence of bookings succeeds, no node ever has
	// two overlapping reservations.
	type req struct {
		Start uint8
		Len   uint8
	}
	f := func(reqs []req) bool {
		clk := simclock.New()
		s := New(clk, nil)
		s.AddPool(cloud.GPUV100, 3)
		for _, q := range reqs {
			start := float64(q.Start % 100)
			end := start + float64(q.Len%8) + 1
			_, _ = s.Book(Spec{Project: "p", NodeType: "gpu_v100", Start: start, End: end})
		}
		byNode := map[string][]*Reservation{}
		for _, r := range s.Reservations("gpu_v100") {
			byNode[r.Node] = append(byNode[r.Node], r)
		}
		for _, list := range byNode {
			for i := 0; i < len(list); i++ {
				for j := i + 1; j < len(list); j++ {
					if overlaps(list[i].Start, list[i].End, list[j].Start, list[j].End) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBook(b *testing.B) {
	clk := simclock.New()
	s := New(clk, nil)
	s.AddPool(cloud.GPUV100, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := float64(i * 3)
		if _, err := s.Book(Spec{Project: "p", NodeType: "gpu_v100", Start: start, End: start + 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFindSlotIsEarliest is the optimality property: for random booking
// patterns, FindSlot returns a feasible start and no strictly earlier
// feasible start exists (checked by brute force on a time grid).
func TestFindSlotIsEarliest(t *testing.T) {
	type booking struct {
		Start uint8
		Len   uint8
	}
	f := func(bookings []booking, durRaw uint8) bool {
		clk := simclock.New()
		s := New(clk, nil)
		s.AddPool(cloud.GPUP100, 2)
		for _, b := range bookings {
			start := float64(b.Start % 80)
			end := start + float64(b.Len%6) + 1
			_, _ = s.Book(Spec{Project: "p", NodeType: "gpu_p100", Start: start, End: end})
		}
		dur := float64(durRaw%5) + 1
		const horizon = 200.0
		got, err := s.FindSlot("gpu_p100", 0, dur, horizon)
		if err != nil {
			return false // pool of 2 over horizon 200 always has room
		}
		// Feasibility of the returned slot.
		free := func(start float64) bool {
			for _, n := range []string{"gpu_p100-00", "gpu_p100-01"} {
				conflict := false
				for _, r := range s.Reservations("gpu_p100") {
					if r.Node == n && start < r.End && r.Start < start+dur {
						conflict = true
						break
					}
				}
				if !conflict {
					return true
				}
			}
			return false
		}
		if !free(got) {
			return false
		}
		// No strictly earlier feasible start on a fine grid.
		for tt := 0.0; tt < got-1e-9; tt += 0.5 {
			if free(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// scanSlot is the original candidate-scan slot search, kept as the
// oracle for earliestLocked: collect earliest, every booking end >=
// earliest and every hold start >= earliest, sort them, and return the
// first candidate at which some node is free for the whole window (and
// the window fits in a hold), with the first such node in pool order.
// Node freedom is a linear overlap scan, independent of nodeFree.
func scanSlot(p *pool, earliest, duration, horizon float64) (float64, string, bool) {
	cands := []float64{earliest}
	for _, list := range p.byNode {
		for _, r := range list {
			if r.End >= earliest {
				cands = append(cands, r.End)
			}
		}
	}
	for _, h := range p.holds {
		if h.start >= earliest {
			cands = append(cands, h.start)
		}
	}
	sort.Float64s(cands)
	for _, start := range cands {
		if start < earliest || start+duration > horizon {
			continue
		}
		if len(p.holds) > 0 && !insideAnyHold(p.holds, start, start+duration) {
			continue
		}
		for _, n := range p.nodes {
			if scanFree(p.byNode[n], start, start+duration) {
				return start, n, true
			}
		}
	}
	return 0, "", false
}

func scanFree(list []*Reservation, start, end float64) bool {
	for _, r := range list {
		if overlaps(start, end, r.Start, r.End) {
			return false
		}
	}
	return true
}

// checkAgainstScan compares one slot query against the oracle: FindSlot
// returns the same start float, and ErrNoNodeFree exactly when the oracle
// finds nothing; BookEarliest books that start on the same node (the
// booking is cancelled again, leaving the calendar as it was).
func checkAgainstScan(t testing.TB, s *Service, nodeType string, earliest, d, horizon float64) {
	t.Helper()
	p := s.pools[nodeType]
	wantStart, wantNode, wantOK := scanSlot(p, earliest, d, horizon)
	gotStart, err := s.FindSlot(nodeType, earliest, d, horizon)
	q := fmt.Sprintf("earliest=%v d=%v horizon=%v holds=%v", earliest, d, horizon, p.holds)
	if !wantOK {
		if !errors.Is(err, ErrNoNodeFree) {
			t.Fatalf("%s: FindSlot = (%v, %v), oracle finds no slot", q, gotStart, err)
		}
		return
	}
	if err != nil || gotStart != wantStart {
		t.Fatalf("%s: FindSlot = (%v, %v), oracle %v", q, gotStart, err, wantStart)
	}
	r, err := s.BookEarliest(Spec{Project: "p", NodeType: nodeType, Start: earliest}, d, horizon)
	if err != nil || r.Start != wantStart || r.Node != wantNode {
		t.Fatalf("%s: BookEarliest = (%+v, %v), oracle (%v, %q)", q, r, err, wantStart, wantNode)
	}
	if err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
}

// randomOps drives a calendar-only service through a random mix of
// bookings (half of them back-to-back with an existing window), earliest
// bookings and cancellations, checking every earliest booking against
// the oracle before it is made.
func randomOps(t testing.TB, s *Service, nodeType string, rng *rand.Rand, n int) {
	t.Helper()
	var ids []string
	var ends []float64
	for k := 0; k < n; k++ {
		switch op := rng.IntN(10); {
		case op < 5: // Book a fixed window
			start := float64(rng.IntN(300)) / 2
			if len(ends) > 0 && rng.IntN(2) == 0 {
				start = ends[rng.IntN(len(ends))]
			}
			end := start + float64(1+rng.IntN(24))/2
			if r, err := s.Book(Spec{Project: "p", NodeType: nodeType, Start: start, End: end}); err == nil {
				ids = append(ids, r.ID)
				ends = append(ends, r.End)
			}
		case op < 8: // BookEarliest, predicted by the oracle
			earliest := float64(rng.IntN(300)) / 2
			d := float64(1+rng.IntN(24)) / 2
			horizon := earliest + float64(rng.IntN(400))/2
			wantStart, wantNode, wantOK := scanSlot(s.pools[nodeType], earliest, d, horizon)
			r, err := s.BookEarliest(Spec{Project: "p", NodeType: nodeType, Start: earliest}, d, horizon)
			switch {
			case !wantOK && !errors.Is(err, ErrNoNodeFree):
				t.Fatalf("BookEarliest(%v, %v, %v) = %v, oracle finds no slot", earliest, d, horizon, err)
			case wantOK && (err != nil || r.Start != wantStart || r.Node != wantNode):
				t.Fatalf("BookEarliest(%v, %v, %v) = (%+v, %v), oracle (%v, %q)", earliest, d, horizon, r, err, wantStart, wantNode)
			case err == nil:
				ids = append(ids, r.ID)
				ends = append(ends, r.End)
			}
		default: // Cancel, opening a gap mid-list
			if len(ids) > 0 {
				i := rng.IntN(len(ids))
				if err := s.Cancel(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			}
		}
	}
}

// TestFindSlotMatchesCandidateScan is the differential test for the gap
// walk: over random pools of 1–6 nodes with 0–3 staff holds, random
// bookings (back-to-back windows included), cancellations and queries,
// FindSlot returns the same start as the candidate scan and fails exactly
// when it does, and BookEarliest books that start on the same node. nodeFree is checked against the
// linear overlap scan on the same lists.
func TestFindSlotMatchesCandidateScan(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xF1))
		s := New(simclock.New(), nil)
		s.AddPool(cloud.GPUP100, 1+rng.IntN(6))
		for h := rng.IntN(4); h > 0; h-- {
			start := float64(rng.IntN(200))
			if err := s.AddStaffHold("gpu_p100", start, start+float64(4+rng.IntN(80))); err != nil {
				t.Fatal(err)
			}
		}
		randomOps(t, s, "gpu_p100", rng, 10+rng.IntN(80))
		p := s.pools["gpu_p100"]
		for q := 0; q < 40; q++ {
			earliest := float64(rng.IntN(320)) / 2
			if q%4 == 0 {
				earliest = rng.Float64() * 160
			}
			d := float64(1+rng.IntN(30)) / 2
			horizon := earliest + float64(rng.IntN(500))/2
			checkAgainstScan(t, s, "gpu_p100", earliest, d, horizon)

			start := float64(rng.IntN(320)) / 2
			end := start + float64(rng.IntN(12))/2
			for _, n := range p.nodes {
				if got, want := nodeFree(p.byNode[n], start, end), scanFree(p.byNode[n], start, end); got != want {
					t.Fatalf("seed %d: nodeFree(%s, %v, %v) = %v, scan %v", seed, n, start, end, got, want)
				}
			}
		}
	}
}

// FuzzFindSlot drives the same comparison from fuzzed inputs: ops holds
// 3-byte records (kind, start, length) that add staff holds, book
// windows and cancel bookings on a pool of 1–6 nodes, then one slot
// query (earliest, duration, horizon) in half-hours is compared with the
// candidate-scan oracle. Run with go test -fuzz FuzzFindSlot.
func FuzzFindSlot(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 20, 1, 0, 20}, uint16(0), uint8(6), uint16(400))
	f.Add(uint8(1), []byte{0, 100, 60, 1, 100, 10, 1, 110, 10, 2, 0, 0}, uint16(90), uint8(4), uint16(300))
	f.Add(uint8(3), []byte{1, 4, 4, 1, 8, 4, 1, 12, 4, 1, 4, 8, 2, 1, 0}, uint16(8), uint8(8), uint16(40))
	f.Fuzz(func(t *testing.T, nodes uint8, ops []byte, earliest uint16, dur uint8, horizon uint16) {
		s := New(simclock.New(), nil)
		s.AddPool(cloud.GPUP100, 1+int(nodes%6))
		var ids []string
		holds := 0
		for len(ops) >= 3 {
			kind, a, b := ops[0]%3, float64(ops[1]), float64(ops[2])
			ops = ops[3:]
			switch kind {
			case 0:
				if holds < 3 {
					holds++
					_ = s.AddStaffHold("gpu_p100", a, a+b+1)
				}
			case 1:
				if r, err := s.Book(Spec{Project: "p", NodeType: "gpu_p100", Start: a / 2, End: (a + b + 1) / 2}); err == nil {
					ids = append(ids, r.ID)
				}
			case 2:
				if len(ids) > 0 {
					i := int(a) % len(ids)
					_ = s.Cancel(ids[i])
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
		}
		e := float64(earliest) / 2
		checkAgainstScan(t, s, "gpu_p100", e, float64(dur%48+1)/2, e+float64(horizon)/2)
	})
}

// TestFindSlotRejectsEmptySlot: a slot must have positive length, as a
// booking must; NaN bounds are rejected the same way.
func TestFindSlotRejectsEmptySlot(t *testing.T) {
	s, _, _ := newSvc()
	nan := math.NaN()
	for _, q := range [][3]float64{{0, 0, 10}, {0, -1, 10}, {nan, 1, 10}, {0, nan, 10}, {0, 1, nan}} {
		if _, err := s.FindSlot("gpu_a100_pcie", q[0], q[1], q[2]); !errors.Is(err, ErrBadWindow) {
			t.Errorf("FindSlot%v err = %v, want ErrBadWindow", q, err)
		}
	}
	if _, err := s.Book(Spec{Project: "class", NodeType: "gpu_a100_pcie", Start: 1, End: nan}); !errors.Is(err, ErrBadWindow) {
		t.Errorf("Book with NaN end err = %v, want ErrBadWindow", err)
	}
}

// TestBookEarliestAtomic: BookEarliest used to drop the service lock
// between the slot search and the booking, so a concurrent booking could
// take the slot and BookEarliest then failed with ErrNoNodeFree although
// later slots were free. Run under -race.
func TestBookEarliestAtomic(t *testing.T) {
	const workers, each, nodes = 8, 40, 4
	s := New(simclock.New(), nil)
	s.AddPool(cloud.GPUP100, nodes)
	var wg sync.WaitGroup
	errs := make(chan error, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				// Everyone asks for the same earliest start, and the pool
				// has room for every booking well before the horizon.
				_, err := s.BookEarliest(Spec{Project: "p", User: fmt.Sprint("u", w), NodeType: "gpu_p100"},
					1, workers*each)
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("BookEarliest: %v", err)
	}
	rs := s.Reservations("gpu_p100")
	if len(rs) != workers*each {
		t.Fatalf("%d reservations, want %d", len(rs), workers*each)
	}
	last := map[string]float64{}
	for _, r := range rs { // sorted by start
		if end, ok := last[r.Node]; ok && r.Start < end {
			t.Fatalf("%s double-booked at %v", r.Node, r.Start)
		}
		last[r.Node] = r.End
	}
}

// coursePool builds a pool shaped like the 800-student course: 31 nodes,
// four weekly staff holds, and about a thousand 3-hour slots booked
// earliest-first from random points in each week's first 100 hours.
// It returns the service and a list of slot queries in the same shape.
func coursePool(tb testing.TB) (*Service, [][3]float64) {
	tb.Helper()
	const weeks, perWeek, week = 4, 250, 168.0
	s := New(simclock.New(), nil)
	s.AddPool(cloud.GPUA100PCIe, 31)
	rng := rand.New(rand.NewPCG(800, 31))
	for w := 0; w < weeks; w++ {
		ws := float64(w) * week
		if err := s.AddStaffHold("gpu_a100_pcie", ws, ws+week); err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < perWeek; k++ {
			if _, err := s.BookEarliest(Spec{Project: "p", NodeType: "gpu_a100_pcie", Start: ws + rng.Float64()*100},
				3, ws+week); err != nil {
				tb.Fatal(err)
			}
		}
	}
	queries := make([][3]float64, 64)
	for i := range queries {
		ws := float64(rng.IntN(weeks)) * week
		queries[i] = [3]float64{ws + rng.Float64()*100, 3, ws + week}
	}
	return s, queries
}

func TestFindSlotZeroAllocs(t *testing.T) {
	s, queries := coursePool(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[i%len(queries)]
		i++
		if _, err := s.FindSlot("gpu_a100_pcie", q[0], q[1], q[2]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FindSlot allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkFindSlot(b *testing.B) {
	s, queries := coursePool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := s.FindSlot("gpu_a100_pcie", q[0], q[1], q[2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBookEarliest books the earliest slot and cancels it again, so
// every iteration sees the same ~1,000-booking pool.
func BenchmarkBookEarliest(b *testing.B) {
	s, queries := coursePool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		r, err := s.BookEarliest(Spec{Project: "p", NodeType: "gpu_a100_pcie", Start: q[0]}, q[1], q[2])
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Cancel(r.ID); err != nil {
			b.Fatal(err)
		}
	}
}
