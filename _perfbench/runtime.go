package main

import (
	"math"
	"runtime/metrics"
)

// runtimeStats is a reading of the Go runtime's own counters.
type runtimeStats struct {
	allocBytes float64
	gcCycles   float64
	gcPauseSec float64 // from the pause histogram, at bucket midpoints
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var st runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		st.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		st.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			st.gcPauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return st
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPauseSec - b.gcPauseSec}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcPauseSec + b.gcPauseSec}
}

// addRuntime reports the runtime counters of the untraced runs per
// student, per call and per run. A GC cycle that a traced run starts
// but an untraced run finishes is counted with the untraced run.
func addRuntime(m map[string]float64, rt runtimeStats, units []unit) {
	students, calls := 0, 0
	for _, u := range units {
		students += u.students
		calls += len(u.ops) + len(u.reads)
	}
	kb := rt.allocBytes / 1024
	if students > 0 {
		m["runtime.alloc_kb_per_student"] = kb / float64(students)
	}
	if calls > 0 {
		m["runtime.alloc_kb_per_op"] = kb / float64(calls)
	}
	m["runtime.gc_cycles"] = rt.gcCycles / float64(len(units))
	m["runtime.gc_pause_ms"] = rt.gcPauseSec * 1e3 / float64(len(units))
}
