package main

import (
	"math"
	"sort"
)

// splitmix64 is the benchmark's own input generator. It is deliberately
// independent of the repo's stats.RNG, so a change to the program's RNG
// never changes the inputs the benchmark feeds it.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// uniform returns a draw in [lo, hi).
func (r *splitmix64) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// intn returns a draw in [0, n).
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// expo returns an exponential draw with the given mean.
func (r *splitmix64) expo(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// pick draws an index with probability proportional to its weight.
func (r *splitmix64) pick(w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	x := r.uniform(0, total)
	for i, wi := range w {
		if x < wi {
			return i
		}
		x -= wi
	}
	return len(w) - 1
}

// seedList derives the per-run simulation seeds from the workload seed.
// Run i of every invocation with the same workload seed simulates the
// same seed, timed or traced.
type seedList struct{ base uint64 }

func (s seedList) at(i int) uint64 {
	r := splitmix64{s: s.base*0x100000001b3 + uint64(i)}
	v := r.next()
	if v == 0 {
		v = 1
	}
	return v
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), p)-1]
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// nearestRank is the 1-based rank of the nearest-rank p-th percentile
// of n samples.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// tailRankOf caps the rank of a tail percentile at what n samples
// support: at least tailBeyond samples lie beyond it, and it never
// drops below the median.
func tailRankOf(n int, p float64) int {
	return max(min(nearestRank(n, p), n-tailBeyond), nearestRank(n, 50))
}

// tailRank is the percentile tail(xs, p) actually reports for n samples.
func tailRank(n int, p float64) float64 {
	if n == 0 {
		return p
	}
	return 100 * float64(tailRankOf(n, p)) / float64(n)
}

// tail is the p-th percentile of xs, capped as tailRankOf says. It
// sorts xs in place and returns 0 for an empty slice.
func tail(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[tailRankOf(len(xs), p)-1]
}

// median is the 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}
