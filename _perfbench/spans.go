package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the
// recorder's epoch. parent is -1 for a run's root span; run identifies
// the run (course simulation or platform scenario) the span belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	run        int32
}

// recorder keeps spans in memory while the traced run executes; write
// puts them on disk once the run has ended. A nil *recorder records
// nothing, so the untraced path calls the same helpers.
type recorder struct {
	epoch time.Time
	spans []span
	run   int32
	open  int32 // innermost open span, -1 at top level
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), open: -1} }

// begin opens a span as a child of the innermost open span and returns
// its index.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)), end: -1, parent: r.open, run: r.run})
	r.open = id
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.epoch))
	r.open = r.spans[id].parent
}

// startRun opens the root span of run number run.
func (r *recorder) startRun(name string, run int) int32 {
	if r == nil {
		return -1
	}
	r.run = int32(run)
	return r.begin(name)
}

// selfTimes returns each span's duration minus the time its direct
// children cover, in nanoseconds. Children never overlap: the benchmark
// is a single caller making one call at a time.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// perCall returns the self time, in microseconds, of every span named
// name.
func perCall(spans []span, self []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// perRun returns, for every run with at least one span named name, the
// total self time of those spans in milliseconds, in run order.
func perRun(spans []span, self []int64, name string) []float64 {
	var out []float64
	last := int32(-1)
	for i, s := range spans {
		if s.name != name {
			continue
		}
		if s.run != last {
			out = append(out, 0)
			last = s.run
		}
		out[len(out)-1] += float64(self[i]) / 1e6
	}
	return out
}

// write stores the spans as tab-separated lines (run, id, parent, name,
// start_ns, end_ns, self_ns) under dir.
func (r *recorder) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.run, i, s.parent, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
