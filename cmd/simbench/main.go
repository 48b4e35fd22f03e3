// Command simbench benchmarks the sharded simulation core
// (internal/shardsim) outside `go test` and writes machine-readable
// results to BENCH_sim.json: throughput in students per second and
// allocation per student, at mid-size and million-student populations.
// Perf regressions in the hot loop (RNG derivation, session folds,
// aggregate merges) show up as a diffable artifact.
//
// Usage:
//
//	go run ./cmd/simbench [-o BENCH_sim.json]
//	go run ./cmd/simbench -check BENCH_sim.json
//
// With -check, the suite runs and exits non-zero if any case allocates
// more than maxAllocsPerStudent (the per-student path is allocation-free;
// what remains is per-shard setup), or if its students/sec falls below
// a quarter of the committed baseline — a wide noise tolerance, since
// throughput varies across machines while allocation counts do not.
// Nothing is written in check mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/shardsim"
)

type result struct {
	Name             string  `json:"name"`
	Students         int     `json:"students"`
	Iterations       int     `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	StudentsPerSec   float64 `json:"students_per_sec"`
	BytesPerStudent  float64 `json:"bytes_per_student"`
	AllocsPerStudent float64 `json:"allocs_per_student"`
	ExceedFracAWS    float64 `json:"exceed_frac_aws"`
	ExceedFracGCP    float64 `json:"exceed_frac_gcp"`
}

// Gate thresholds for -check.
const (
	// maxAllocsPerStudent admits per-shard setup (~11 allocs per 4096
	// students) and rejects any allocation on the per-student path.
	maxAllocsPerStudent = 0.01
	// minThroughputFrac is the noise tolerance on students/sec: a run
	// fails only below this fraction of the committed baseline.
	minThroughputFrac = 0.25
)

func benchRun(students int, last **shardsim.Report) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := shardsim.Run(shardsim.Config{Students: students, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			*last = rep
		}
	}
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output path for the JSON results")
	check := flag.String("check", "", "baseline JSON to gate against (no output written)")
	flag.Parse()

	cases := []struct {
		name     string
		students int
	}{
		{"Sharded100k", 100_000},
		{"Sharded1M", 1_000_000},
	}
	results := make([]result, 0, len(cases))
	for _, c := range cases {
		var rep *shardsim.Report
		r := testing.Benchmark(benchRun(c.students, &rep))
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		res := result{
			Name:             c.name,
			Students:         c.students,
			Iterations:       r.N,
			NsPerOp:          ns,
			StudentsPerSec:   float64(c.students) / (ns / 1e9),
			BytesPerStudent:  float64(r.AllocedBytesPerOp()) / float64(c.students),
			AllocsPerStudent: float64(r.MemAllocs) / float64(r.N) / float64(c.students),
			ExceedFracAWS:    rep.AWS.ExceedFrac(),
			ExceedFracGCP:    rep.GCP.ExceedFrac(),
		}
		results = append(results, res)
		fmt.Printf("%-12s %9d students  %10.0f students/s  %8.1f B/student  %.5f allocs/student  exceed %.4f/%.4f\n",
			res.Name, res.Students, res.StudentsPerSec, res.BytesPerStudent,
			res.AllocsPerStudent, res.ExceedFracAWS, res.ExceedFracGCP)
	}

	if *check != "" {
		os.Exit(gate(*check, results))
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// gate checks the hard allocs/student ceiling and the throughput floor
// against the baseline file, and returns the process exit code.
func gate(path string, results []result) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: read baseline: %v\n", err)
		return 1
	}
	var baseline []result
	if err := json.Unmarshal(data, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: parse baseline: %v\n", err)
		return 1
	}
	base := make(map[string]result, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	code := 0
	for _, r := range results {
		if r.AllocsPerStudent > maxAllocsPerStudent {
			fmt.Printf("%-12s FAIL: %.5f allocs/student above the %.2f ceiling\n",
				r.Name, r.AllocsPerStudent, maxAllocsPerStudent)
			code = 1
		}
		b, ok := base[r.Name]
		if !ok {
			fmt.Printf("%-12s no baseline (new benchmark), skipping throughput floor\n", r.Name)
			continue
		}
		floor := b.StudentsPerSec * minThroughputFrac
		if r.StudentsPerSec < floor {
			fmt.Printf("%-12s FAIL: %.0f students/s below the floor %.0f (baseline %.0f)\n",
				r.Name, r.StudentsPerSec, floor, b.StudentsPerSec)
			code = 1
		} else {
			fmt.Printf("%-12s ok: %.0f students/s (floor %.0f)\n",
				r.Name, r.StudentsPerSec, floor)
		}
	}
	return code
}
