package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// units is how many fresh processes a build or sweep run is split
// into, one world each: worlds seed, seed+1, .... A figure is the
// median over units. On a shared host a whole process sometimes runs
// 30-50% slower from start to end, and the cost of a world differs
// from the next by up to 10%; with one process per run, either would
// move the run's figure.
const units = 5

// nominalOpS is the wall time of one op on a 2-vCPU Intel Xeon
// (go1.24): a BuildWorld, or a warm experiment pass. It only turns
// --seconds into an op count; the count never depends on how fast the
// ops actually run, so the statistic a unit reports stays the same
// when the code under test gets faster or slower.
var nominalOpS = map[string]float64{"build": 1.4, "sweep": 1.9}

// opsPerUnit is the fixed number of timed ops each unit runs: the odd
// number nearest to the unit's share of seconds over the nominal op
// time, at least 1. An odd count makes a unit's median one of its ops.
func opsPerUnit(workload string, seconds float64) int {
	x := seconds / units / nominalOpS[workload]
	n := 2*int(math.Round((x-1)/2)) + 1
	if n < 1 {
		return 1
	}
	return n
}

// unitOut is what a -unit child prints: one world's figures, measured
// in a process of its own.
type unitOut struct {
	Setup     float64        `json:"setup_s"`     // wall time of set-up
	SetupCPU  float64        `json:"setup_cpu_s"` // its CPU time, all threads
	Ops       []float64      `json:"ops_ms"`      // wall time of each timed op
	CPU       []float64      `json:"ops_cpu_ms"`  // its CPU time, all threads
	RSS       float64        `json:"peak_rss_mb"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Notes     []string       `json:"notes,omitempty"`
	Record    map[string]any `json:"record,omitempty"`
}

func (u *unitOut) fail(format string, args ...any) {
	u.Failed++
	if len(u.Notes) < 5 {
		u.Notes = append(u.Notes, fmt.Sprintf(format, args...))
	}
}

// runUnit runs in a -unit child: one world of a build or sweep run,
// with ops timed ops after set-up.
func runUnit(workload string, seed int64, ops int) error {
	run := map[string]func(*unitOut, int64, int) error{"build": buildUnit, "sweep": sweepUnit}[workload]
	if run == nil {
		return fmt.Errorf("-unit: workload %q has no units", workload)
	}
	u := &unitOut{}
	if err := run(u, seed, ops); err != nil {
		return err
	}
	u.Attempted = len(u.Ops)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	u.RSS = rss
	return json.NewEncoder(os.Stdout).Encode(u)
}

// timeOp runs op and appends its wall and CPU time to the unit's ops.
func (u *unitOut) timeOp(op func() error) error {
	t, c := time.Now(), processCPU()
	err := op()
	u.Ops = append(u.Ops, ms(time.Since(t)))
	u.CPU = append(u.CPU, ms(processCPU()-c))
	return err
}

// runUnits runs a build or sweep run as units fresh processes of
// opsPerUnit ops each and sets its end-to-end metrics, each the median
// over units of one figure per unit: setup_s, the CPU time of the
// unit's set-up; op_cpu_ms, the CPU time of the unit's median op;
// peak_rss_mb, the unit's VmHWM. The times are scaled to the reference
// host by the calibration kernel, timed before each unit. The raw CPU
// times and the wall times go in the record.
func runUnits(r *run, workload string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ops := opsPerUnit(workload, r.seconds)
	r.record["ops_per_unit"] = ops
	var setups, setupWalls, rawSetups, cpus, rawCPUs, walls, rsss []float64
	var recs []map[string]any
	cal := newCalibrator()
	for i := 0; i < units; i++ {
		scale := cal.scale()
		seed := r.seed + int64(i)
		cmd := exec.Command(self, "-unit", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-ops", strconv.Itoa(ops))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s unit for world %d: %w", workload, seed, err)
		}
		var u unitOut
		if err := json.Unmarshal(out, &u); err != nil {
			return fmt.Errorf("%s unit for world %d printed %q: %w", workload, seed, out, err)
		}
		r.attempted += u.Attempted
		r.failed += u.Failed
		r.notes = append(r.notes, u.Notes...)
		setups = append(setups, u.SetupCPU*scale)
		rawSetups = append(rawSetups, u.SetupCPU)
		setupWalls = append(setupWalls, u.Setup)
		cpus = append(cpus, median(u.CPU)*scale)
		rawCPUs = append(rawCPUs, median(u.CPU))
		walls = append(walls, median(u.Ops))
		rsss = append(rsss, u.RSS)
		recs = append(recs, map[string]any{"world": seed, "setup_s": u.Setup, "setup_cpu_s": u.SetupCPU, "ops_ms": u.Ops,
			"ops_cpu_ms": u.CPU, "peak_rss_mb": u.RSS, "scale": scale, "record": u.Record})
	}
	r.record["calib_kernel_ms"] = cal.ms
	r.record["units"] = recs
	r.record["op_wall_ms"] = median(walls)
	r.record["setup_wall_s"] = median(setupWalls)
	r.record["raw_setup_cpu_s"] = median(rawSetups)
	r.record["raw_op_cpu_ms"] = median(rawCPUs)
	r.set("setup_s", "s", median(setups))
	r.set("op_cpu_ms", "ms", median(cpus))
	r.set("peak_rss_mb", "MB", median(rsss))
	return nil
}
