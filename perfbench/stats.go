package main

import (
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// tailQuantile is the percentile a run of n samples can report with at
// least ten samples beyond it, capped at want: 0.99 needs 1000 samples,
// 0.9 needs 100. It returns 0 when even the median has fewer than ten
// samples beyond it.
func tailQuantile(n int, want float64) float64 {
	if n < 20 {
		return 0
	}
	q := 1 - 10/float64(n)
	if q > want {
		q = want
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB, falling back to the Go runtime's total obtained memory where /proc
// is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// totalAlloc is the cumulative bytes the Go heap has allocated.
func totalAlloc() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.TotalAlloc
}
