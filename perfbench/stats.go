package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer, and the percentile is set by a handful of outliers.
const minBeyond = 10

// tailLadder are the percentiles tail reports, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail returns the highest percentile of xs, at most maxQ, that has at
// least minBeyond samples beyond it, with its value. With too few
// samples for any it falls back to the median.
func tail(xs []float64, maxQ float64) (q, v float64) {
	s := sortedCopy(xs)
	n := len(s)
	for _, q := range tailLadder {
		if q > maxQ {
			continue
		}
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q, quantile(s, q)
		}
	}
	return 0.5, quantile(s, 0.5)
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// medianOf returns, per key, the median of that key's values across
// iterations. Every iteration reports the same keys.
func medianOf(iters []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(iters) == 0 {
		return out
	}
	for k := range iters[0] {
		vs := make([]float64, len(iters))
		for i, it := range iters {
			vs[i] = it[k]
		}
		out[k] = median(vs)
	}
	return out
}

// processCPU is the CPU time, user plus system, this process has used
// on all its threads. Unlike wall time it leaves out time spent waiting
// for a CPU, which on a shared host is set by the neighbours more than
// by the program; the kernel also leaves out the time the hypervisor
// took the vCPU away (steal).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// It fails only for a bad who or pointer, which is a bug here.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat.
const userHZ = 100

// childCPU is processCPU for another process, read from
// /proc/<pid>/stat in steps of 1/userHZ seconds.
func childCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is in parentheses and may hold
	// spaces; utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %q", pid, b)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %v", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}
