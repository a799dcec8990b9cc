package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to process start as Go code gets; the first
// set-up is timed from it, so runtime and package initialisation count.
var processStart = time.Now()

// instance is one set-up workload, ready to run ops.
type instance interface {
	// op runs op i — warm-up ops are numbered first, timed ops after
	// them — and reports whether it passed every check it can make
	// without allocating.
	op(i int) bool
	// verify makes the checks too expensive for the timed loop over the
	// timed ops [first, first+n) and returns how many more of them
	// failed.
	verify(first, n int) int
	// counters reports the ratios the workload's layers keep themselves
	// (cache and pool hits), read once the ops are done.
	counters() map[string]float64
	close()
}

// workload describes one of the four workloads. Work is fixed, not
// time: a run does opsPerSecond x seconds ops, the same count on every
// commit, so per-op counts compare exactly. opsPerSecond was sized on
// the 2-vCPU machine class the benchmark is run on so that the timed
// section lasts about the seconds asked for.
type workload struct {
	name         string
	opsPerSecond float64
	setup        func(*env) (instance, error)
}

var workloads = []workload{
	{"fig-micro", 20, newFigMicro},
	{"fig-apps", 5.25, newFigApps},
	{"serve-cold", 42, newServeCold},
	{"serve-warm", 70000, newServeWarm},
}

// procs is the GOMAXPROCS every workload pins: the smallest machine the
// benchmark runs on has two CPUs, and the goroutine engine needs both.
const procs = 2

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	warmupShare = 0.05 // untimed warm-up ops, as a share of the timed ops
	// overrun is how far past the seconds asked for the timed loop may
	// run (plus a second's grace for the reference kernel and for tiny
	// test runs) before it stops early: the work is fixed, but a run on
	// a much slower machine must still end.
	overrun = 1.25
)

// env is what a workload's set-up and ops see of the run.
type env struct {
	seed   int64
	ops    int     // warm-up plus timed ops the instance must be able to run
	tr     *tracer // nil when tracing is off
	golden *golden
	notes  int
}

// note reports a failed check on standard error; only the first few
// are printed so a broken run does not flood the terminal.
func (e *env) note(format string, args ...any) {
	if e.notes++; e.notes <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	}
}

// pin checks a component's virtual picoseconds against golden.json.
func (e *env) pin(key string, ps int64) bool {
	if e.golden.check(key, ps) {
		return true
	}
	e.note("%s: virtual time %d ps differs from the pinned %d ps", key, ps, e.golden.Pins[key])
	return false
}

// The reference kernel. This class of machine (a 2-vCPU shared VM)
// spends minutes at a time in a slow mode in which branchy, high-IPC
// code — all four workloads — runs 15-40% slower while a
// dependency-bound kernel such as SHA-256 moves 2%: whole runs land in
// it, so no statistic taken inside one run is steady. A kernel of the
// same kind as the workloads, timed at refCheckpoints points spread
// through the timed loop, tracks the mode (r = 0.81-0.95 with op_p50
// over ten runs of every workload), so timings are reported relative to
// it: measured x refNominalNs / the run's median kernel time. The
// kernel sorts a fixed 4096-int slice with the standard library; it
// allocates nothing, touches no repository code, and its wall and CPU
// time are taken out of the run's totals. README.md has the numbers.
const (
	refCheckpoints = 40
	refReps        = 8
	// refNominalNs is the kernel's median on an undisturbed core of the
	// machine class the workloads were sized on, so normalised times
	// read as that machine's times.
	refNominalNs = 210e3
)

type refKernel struct {
	tmpl, work []int
	samples    []float64 // nanoseconds per sort
	wall, cpu  time.Duration
}

func newRefKernel() *refKernel {
	return &refKernel{
		tmpl: rand.New(rand.NewSource(4096)).Perm(4096), work: make([]int, 4096),
		samples: make([]float64, 0, (refCheckpoints+2)*refReps),
	}
}

// checkpoint times the kernel refReps times.
func (k *refKernel) checkpoint() {
	c0, t0 := cpuTime(), time.Now()
	for r := 0; r < refReps; r++ {
		t := time.Now()
		copy(k.work, k.tmpl)
		sort.Ints(k.work)
		k.samples = append(k.samples, float64(time.Since(t)))
	}
	k.wall += time.Since(t0)
	k.cpu += cpuTime() - c0
}

// hostFactor is what a timing is multiplied by to take the host's mode
// out of it.
func (m *measurement) hostFactor() float64 { return refNominalNs / m.refNs }

// measurement is what one timed section produced.
type measurement struct {
	opsPlanned int
	warmup     int
	latNs      []int64 // one per timed op, in run order
	failed     int
	wall       time.Duration // of the timed section, less the reference kernel's share
	cpu        time.Duration // likewise
	refNs      float64       // median time of the reference kernel, interleaved with the ops
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	setups     []float64 // seconds, one per set-up repetition
	counters   map[string]float64
}

// plannedOps is the fixed work of a run.
func plannedOps(w workload, seconds float64) (ops, warmup int) {
	ops = max(int(w.opsPerSecond*seconds+0.5), 1)
	warmup = max(int(float64(ops)*warmupShare+0.5), 1)
	return ops, warmup
}

// measure sets the workload up setupReps times — the last set-up is the
// one measured — and runs the fixed work once.
func measure(w workload, seed int64, seconds float64, setupReps int, tr *tracer, g *golden) (*measurement, error) {
	ops, warmup := plannedOps(w, seconds)
	m := &measurement{opsPlanned: ops, warmup: warmup}
	e := &env{seed: seed, ops: warmup + ops, tr: tr, golden: g}

	var inst instance
	var ref *refKernel
	start := processStart
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			inst.close()
			start = time.Now()
		}
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for i := 0; i < warmup; i++ {
			tr.nextOp(-1)
			inst.op(i) // a failing warm-up op fails again when timed
		}
		if rep == setupReps-1 {
			// The latency buffer belongs to set-up: nothing in the
			// timed section allocates on the harness's behalf.
			m.latNs = make([]int64, 0, ops)
			ref = newRefKernel()
		}
		runtime.GC()
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	defer inst.close()
	if tr != nil {
		tr.spans = tr.spans[:0] // warm-up spans are not measured
	}

	deadline := time.Duration(overrun*seconds*float64(time.Second)) + time.Second
	every := (ops + refCheckpoints - 1) / refCheckpoints
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	ref.checkpoint()
	prev := time.Now()
	for i := 0; i < ops; i++ {
		if e.tr = nil; tr.traces(i) {
			e.tr = tr
		}
		tr.nextOp(i)
		if !inst.op(warmup + i) {
			m.failed++
		}
		now := time.Now()
		m.latNs = append(m.latNs, int64(now.Sub(prev)))
		if (i+1)%every == 0 && i+1 < ops {
			ref.checkpoint()
			now = time.Now()
		}
		prev = now
		if now.Sub(t0) > deadline {
			break
		}
	}
	ref.checkpoint()
	m.wall = time.Since(t0) - ref.wall
	m.cpu = cpuTime() - cpu0 - ref.cpu
	m.refNs = median(ref.samples)
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	m.failed += inst.verify(warmup, len(m.latNs))
	m.counters = inst.counters()
	return m, nil
}

// latencyMs returns the median and tail latency in milliseconds, with
// the percentile the tail was read at (0.9 when the sample allows it).
func (m *measurement) latencyMs() (p50, tail, tailPct float64) {
	s := append([]int64(nil), m.latNs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx, pct := tailIndex(len(s), 0.9)
	return float64(s[(len(s)-1)/2]) / 1e6, float64(s[idx]) / 1e6, pct
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
