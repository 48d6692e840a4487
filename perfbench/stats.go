package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it; a p99 therefore needs at least 1,000 samples.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of xs (0 < p <= 1) and
// how many samples lie beyond it. xs need not be sorted; it is not
// modified. An empty input returns (0, 0).
func quantile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s) - 1 - idx
}

// percentile is quantile under the reporting rule: ok is false when
// fewer than minBeyond samples lie beyond the percentile, in which case
// the value must not be reported as that percentile.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	v, beyond := quantile(xs, p)
	return v, beyond >= minBeyond
}

// median returns the median of xs (the mean of the middle pair for an
// even count), 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for an empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs is the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sample is the process cost of one measured window: wall and CPU
// time, and heap allocations.
type sample struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
}

// meter brackets one measured window. The garbage collector runs
// first, so a window does not pay for the previous one's garbage.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func startMeter() meter {
	runtime.GC()
	m := meter{alloc0: mallocs(), cpu0: cpuTime()}
	m.t0 = time.Now()
	return m
}

func (m meter) stop() sample {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	return sample{wall: wall, cpu: cpu, allocs: mallocs() - m.alloc0}
}
