package main

// Host-speed calibration.
//
// On a shared host the speed of a vCPU drifts with the neighbours' load
// on caches and memory, over seconds to minutes, and CPU time drifts
// with it: in 13 back-to-back build units of one world on a 2-vCPU
// Xeon, the unit's median BuildWorld took 1.79-2.33 s of CPU, a quartile
// spread of 0.16 of the median, with under 1% of the time stolen by the
// hypervisor. A fixed kernel timed next to the work drifts too. Of the
// kernels tried, dependent loads from a 16 MB table (past a vCPU's 2 MB
// of L2, inside the L3 it shares with the host) followed by register
// arithmetic tracked the program best; loads from a 64 MB table alone
// spread more than the program did. It tracks best when timed right
// before the unit or server a figure comes from: over two sets of ten
// runs of every workload, figures divided by the kernel time just
// before them spread at most 0.10 between runs, against up to 0.24
// unscaled and 0.19 when one median kernel time scaled a whole run. So
// each unit and each server is scaled by refKernelMs over the median
// of the kernel runs just before it: the time the work would take on a
// host on which the kernel takes refKernelMs. The kernel is benchmark
// code, so a change to the program never moves it; the raw times and
// the kernel's are in the result record.

const (
	calibTableLen = 1 << 21 // uint64s: 16 MB
	calibLoads    = 500_000
	calibMuls     = 17_500_000
	calibReps     = 5 // kernel runs per sample
	// refKernelMs is the kernel's CPU time on the reference host. The
	// kernel takes about 55 ms on the 2-vCPU Xeon (go1.24) the
	// benchmark was written on, so scaled times read close to real ones
	// there.
	refKernelMs = 55
)

var calibSink uint64

// calibrator times the kernel and keeps every time it measured.
type calibrator struct {
	table []uint64
	ms    []float64
}

func newCalibrator() *calibrator {
	t := make([]uint64, calibTableLen)
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return &calibrator{table: t}
}

// kernel runs the fixed work once and returns its CPU time in ms. Each
// load's index depends on the one before, so the loads cannot overlap.
func (c *calibrator) kernel() float64 {
	t := processCPU()
	x := uint64(1)
	for i := 0; i < calibLoads; i++ {
		x += c.table[(x^uint64(i))&(calibTableLen-1)]
	}
	for i := 0; i < calibMuls; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibSink += x & 1
	return ms(processCPU() - t)
}

// scale times the kernel calibReps times and returns the factor that
// turns a time measured right after it into reference-host time:
// refKernelMs over the median kernel time.
func (c *calibrator) scale() float64 {
	var xs []float64
	for i := 0; i < calibReps; i++ {
		xs = append(xs, c.kernel())
	}
	c.ms = append(c.ms, xs...)
	return refKernelMs / median(xs)
}
