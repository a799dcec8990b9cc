package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tune"
)

// perLayer lists every per-layer metric of a traced run, in the order
// README.md documents them. None gates a change: they say where an
// end-to-end number comes from. Timings are medians (quartiles are in
// the result file's spread); *_allocs are exact per-call counts.
var perLayer = []metricSpec{
	{"sim.topology_miss_us", "us"}, {"sim.topology_miss_allocs", "count"},
	{"sim.topology_hit_us", "us"}, {"sim.xfer_cost_ns", "ns"},

	{"mpi.world_build_goroutine_ms", "ms"}, {"mpi.world_build_goroutine_allocs", "count"},
	{"mpi.run_empty_goroutine_ms", "ms"}, {"mpi.run_empty_goroutine_allocs", "count"},
	{"mpi.world_close_ms", "ms"},
	{"mpi.pingpong_ns_per_msg", "ns"}, {"mpi.pingpong_allocs_per_msg", "count"},
	{"mpi.msgs_per_op", "count"}, {"mpi.bytes_per_op", "B"},
	{"mpi.world_build_event_ms", "ms"}, {"mpi.world_build_event_allocs", "count"},
	{"mpi.run_empty_event_ms", "ms"}, {"mpi.run_empty_event_allocs", "count"},
	{"mpi.reset_clocks_us", "us"}, {"mpi.fig_op_event_ms", "ms"},

	{"coll.hier_setup_ms", "ms"}, {"coll.hier_allgather_ms_per_iter", "ms"},
	{"coll.bcast_ms_per_iter", "ms"}, {"coll.allreduce_event_ms_per_iter", "ms"},

	{"hybrid.setup_ms", "ms"}, {"hybrid.allgather_ms_per_iter", "ms"},
	{"hybrid.bcast_ms_per_iter", "ms"}, {"hybrid.bcast_real_ms_per_iter", "ms"},

	{"la.gemm_mflops", "Mflop/s"}, {"summa.run_ms", "ms"}, {"bpmf.run_ms", "ms"},

	{"spec.parse_us", "us"}, {"spec.parse_allocs", "count"},
	{"spec.fingerprint_us", "us"}, {"spec.fingerprint_allocs", "count"},
	{"spec.price_us", "us"}, {"spec.price_allocs", "count"},
	{"spec.exec_cold_ms", "ms"},
	{"spec.pool_checkout_hit_us", "us"}, {"spec.pool_checkout_hit_allocs", "count"},
	{"spec.pool_hit_ratio", "ratio"},

	{"server.hit_handler_us", "us"}, {"server.hit_handler_allocs", "count"},
	{"server.encode_us", "us"}, {"server.encode_allocs", "count"},
	{"server.hit_self_us", "us"}, {"server.cache_hit_ratio", "ratio"},
	{"server.miss_overhead_us", "us"},
	{"server.metrics_render_us", "us"}, {"server.metrics_render_allocs", "count"},

	{"net.loopback_rtt_us", "us"},

	{"tune.lookup_ns", "ns"}, {"tune.lookup_allocs", "count"},
	{"tune.save_ms", "ms"}, {"tune.load_ms", "ms"},

	{"runtime.gc_cycles_per_op", "count"}, {"runtime.gc_pause_ms_per_op", "ms"},
	{"runtime.p1_op_p50_ms", "ms"},
	{"host.ref_cpu_ms", "ms"}, {"host.ref_sort_us", "us"}, {"host.factor", "ratio"},
	{"host.steal_pct", "%"}, {"host.loadavg", "count"},
	{"trace.overhead_pct", "%"},

	// Self time of each layer in the workload's own traced ops: the
	// span's duration minus its children's, summed by layer, median
	// over ops.
	{"self.harness_ms", "ms"}, {"self.mpi_ms", "ms"}, {"self.coll_ms", "ms"},
	{"self.hybrid_ms", "ms"}, {"self.summa_ms", "ms"}, {"self.bpmf_ms", "ms"},
	{"self.spec_ms", "ms"}, {"self.server_ms", "ms"},
	{"self.sum_ms", "ms"}, {"self.sum_vs_p50_pct", "%"},
	{"self.target_pct", "%"}, {"self.bypassed_pct", "%"},
}

// selfLayers are the layers with a self.<layer>_ms metric.
var selfLayers = []string{"harness", "mpi", "coll", "hybrid", "summa", "bpmf", "spec", "server"}

// layerRoles names, per workload, the layers it is meant to spend its
// time in and the ones it is meant to bypass.
var layerRoles = map[string]struct{ target, bypassed []string }{
	"fig-micro":  {[]string{"mpi", "coll", "hybrid"}, []string{"spec", "server"}},
	"fig-apps":   {[]string{"mpi", "summa", "bpmf"}, []string{"spec", "server"}},
	"serve-cold": {[]string{"spec", "mpi", "coll"}, []string{"hybrid", "summa", "bpmf"}},
	"serve-warm": {[]string{"spec", "server"}, []string{"mpi", "coll", "hybrid"}},
}

// sizing is how much a traced run measures. The smoke test shrinks it;
// every real run uses fullSizing.
type sizing struct {
	tracedOps    int // least ops a traced section measures
	tracedOpsCap int // most, so serve-warm's spans stay small
	probeReps    int // calls per direct probe
	slopePairs   int // (2, 10)-iteration pairs per per-iteration slope
	socketHits   int // cache hits sent over the loopback socket
}

var fullSizing = sizing{tracedOps: 50, tracedOpsCap: 20000, probeReps: 50, slopePairs: 25, socketHits: 2000}

// layerSet collects the per-layer metrics of one traced run.
type layerSet struct {
	sizing
	values map[string]float64
	spread map[string]summary
}

// sample reports a timing as the median of vals and keeps the quartiles.
func (l *layerSet) sample(name string, vals []float64) {
	s := summarize(vals)
	l.values[name] = s.Median
	l.spread[name] = s
}

func scale(vals []float64, by float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * by
	}
	return out
}

// timeCalls times reps calls one by one (nanoseconds each) and counts
// the allocations of one call exactly, from the allocator's own
// counter over all of them.
func timeCalls(reps int, call func()) (ns []float64, allocs float64) {
	ns = make([]float64, reps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range ns {
		t0 := time.Now()
		call()
		ns[i] = float64(time.Since(t0))
	}
	runtime.ReadMemStats(&ms1)
	return ns, float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
}

// tracedSection runs about ops ops of w with tr (nil for untraced) on a
// single set-up.
func tracedSection(w workload, seed int64, ops int, tr *tracer, g *golden) (*measurement, error) {
	return measure(w, seed, float64(ops)/w.opsPerSecond, 1, tr, g)
}

// perOp returns one value per op: the total (or, with mean, the mean)
// measured duration in nanoseconds of the op's spans called name.
func perOp(spans []span, name string, mean bool) []float64 {
	sum, count := map[int]float64{}, map[int]int{}
	last := -1
	for _, s := range spans {
		if s.Name == name {
			sum[s.Op] += s.measuredNs()
			count[s.Op]++
		}
		last = max(last, s.Op)
	}
	var out []float64
	for op := 0; op <= last; op++ {
		if n := count[op]; n > 0 {
			if mean {
				out = append(out, sum[op]/float64(n))
			} else {
				out = append(out, sum[op])
			}
		}
	}
	return out
}

// writeJSON writes v to path as one JSON document.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runTraced is the -trace 1 run. It measures the chosen workload
// untraced, traced and at GOMAXPROCS=1, traces a short section of each
// of the other workloads (the layer timings named after their spans
// come from there), and probes each layer's public functions directly.
// The chosen workload's spans are kept in memory until its traced
// section ends and then written to spansPath, when one is given.
func runTraced(w workload, seed int64, seconds float64, g *golden, sz sizing, spansPath string) (*result, error) {
	l := &layerSet{sizing: sz, values: map[string]float64{}, spread: map[string]summary{}}
	host0, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	// The chosen workload gets a fifth of the seconds per section, the
	// others a twentieth; every section has at least tracedOps ops.
	sectionOps := func(w workload, seconds float64) int {
		return min(max(int(w.opsPerSecond*seconds), l.tracedOps), l.tracedOpsCap)
	}
	ops := sectionOps(w, seconds/5)

	untraced, err := tracedSection(w, seed, ops, nil, g)
	if err != nil {
		return nil, err
	}
	n := float64(len(untraced.latNs))
	l.values["runtime.gc_cycles_per_op"] = float64(untraced.gcCycles) / n
	l.values["runtime.gc_pause_ms_per_op"] = untraced.gcPause.Seconds() * 1e3 / n
	l.values["host.ref_sort_us"] = untraced.refNs / 1e3
	l.values["host.factor"] = untraced.hostFactor()
	failed, attempted := 0, 0 // of the traced sections, on top of the untraced one's

	runtime.GOMAXPROCS(1)
	p1, err := tracedSection(w, seed, ops, nil, g)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	l.values["runtime.p1_op_p50_ms"], _, _ = p1.latencyMs()

	for _, other := range workloads {
		own := other.name == w.name
		n := sectionOps(other, seconds/20)
		tr := newTracer(1 << 16)
		if own {
			// One op in three is traced; see below.
			n, tr.oneIn = 3*ops, 3
		}
		m, err := tracedSection(other, seed, n, tr, g)
		if err != nil {
			return nil, err
		}
		failed += min(m.failed, len(m.latNs))
		attempted += len(m.latNs)
		l.fromSpans(other.name, tr.spans, m)
		if !own {
			continue
		}
		// Of every three ops the last is traced and the first, which
		// follows a traced op's replays and finds the caches cold, is
		// left out: the middle one is the untraced op to compare with.
		var plain, traced []float64
		for i, ns := range m.latNs {
			switch i % 3 {
			case 1:
				plain = append(plain, float64(ns)/1e6)
			case 2:
				traced = append(traced, float64(ns)/1e6)
			}
		}
		if strings.HasPrefix(w.name, "serve-") {
			// The daemon workloads replay stages after the op, so the
			// traced op is its root span, not the loop iteration.
			traced = scale(perOp(tr.spans, "harness.op", false), 1e-6)
		}
		l.values["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
		l.selfTimes(w.name, tr.spans, median(plain))
		if spansPath != "" {
			if err := writeJSON(spansPath, tr.spans); err != nil {
				return nil, err
			}
		}
	}

	for _, probe := range []func(*layerSet) error{
		probeSim, probeGoroutineWorld, probePingPong, probeMessages, probeEventWorld,
		probeFigOpEvent, probeSlopes, probeGemm, probeSpec, probePool, probeDaemon, probeTune,
	} {
		if err := probe(l); err != nil {
			return nil, err
		}
	}
	l.sample("host.ref_cpu_ms", scale(shaKernel(l.probeReps), 1e-6))
	host1, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	l.values["host.steal_pct"] = 100 * float64(host1.steal-host0.steal) / math.Max(float64(host1.total-host0.total), 1)
	if l.values["host.loadavg"], err = readLoadAvg(); err != nil {
		return nil, err
	}

	res := newResult(w, seed, seconds, untraced)
	res.Trace = true
	res.Failed += failed
	res.Attempted += attempted
	res.Correct = res.Failed == 0
	res.Spread = l.spread
	for _, spec := range perLayer {
		v, ok := l.values[spec.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("traced run produced no finite %s", spec.name)
		}
		res.Metrics[spec.name] = metricValue{v, spec.unit}
	}
	return res, nil
}

// fromSpans reports the layer timings that are read off a workload's
// own spans rather than probed.
func (l *layerSet) fromSpans(name string, spans []span, m *measurement) {
	ms := func(metric, span string, mean bool) { l.sample(metric, scale(perOp(spans, span, mean), 1e-6)) }
	us := func(metric, span string, mean bool) { l.sample(metric, scale(perOp(spans, span, mean), 1e-3)) }
	switch name {
	case "fig-micro":
		ms("coll.hier_setup_ms", "coll.hier_setup", true)
		ms("hybrid.setup_ms", "hybrid.setup", true)
	case "fig-apps":
		ms("summa.run_ms", "summa.run", true)
		ms("bpmf.run_ms", "bpmf.run", true)
	case "serve-cold":
		ms("spec.exec_cold_ms", "spec.exec", false)
		handler, exec := perOp(spans, "server.handler", false), perOp(spans, "spec.exec", false)
		over := make([]float64, min(len(handler), len(exec)))
		for i := range over {
			over[i] = (handler[i] - exec[i]) / 1e3
		}
		l.sample("server.miss_overhead_us", over)
		l.values["spec.pool_hit_ratio"] = m.counters["pool_hit_ratio"]
	case "serve-warm":
		us("server.hit_handler_us", "server.handler", false)
		us("server.encode_us", "server.encode", false)
		us("spec.parse_us", "spec.parse", false)
		us("spec.fingerprint_us", "spec.fingerprint", false)
		var self []float64
		for _, byName := range selfByName(spans) {
			self = append(self, byName["server.handler"]/1e3)
		}
		l.sample("server.hit_self_us", self)
		l.values["server.cache_hit_ratio"] = m.counters["cache_hit_ratio"]
	}
}

// selfTimes reports the workload's own layer breakdown against its
// untraced median op.
func (l *layerSet) selfTimes(name string, spans []span, untracedP50ms float64) {
	roles := layerRoles[name]
	perLayer := map[string][]float64{}
	var sums, target, bypassed []float64
	for _, byName := range selfByName(spans) {
		byLayer := map[string]float64{}
		sum := 0.0
		for span, ns := range byName {
			byLayer[layerOf(span)] += ns / 1e6
			sum += ns / 1e6
		}
		for _, layer := range selfLayers {
			perLayer[layer] = append(perLayer[layer], byLayer[layer])
		}
		share := func(layers []string) float64 {
			in := 0.0
			for _, layer := range layers {
				in += byLayer[layer]
			}
			return 100 * in / sum
		}
		sums, target, bypassed = append(sums, sum), append(target, share(roles.target)), append(bypassed, share(roles.bypassed))
	}
	for _, layer := range selfLayers {
		l.sample("self."+layer+"_ms", perLayer[layer])
	}
	l.sample("self.sum_ms", sums)
	l.sample("self.target_pct", target)
	l.sample("self.bypassed_pct", bypassed)
	l.values["self.sum_vs_p50_pct"] = 100 * l.values["self.sum_ms"] / untracedP50ms
}

var sink int64 // keeps probed calls from being optimised away

func probeSim(l *layerSet) error {
	// A miss interns a shape this process has not built before: 64
	// nodes of 24 ranks, the first eight widened by the base-8 digits
	// of a counter.
	sizes := make([]int, microNodes)
	for i := range sizes {
		sizes[i] = microPPN
	}
	shape := 0
	var err error
	ns, allocs := timeCalls(l.probeReps, func() {
		shape++
		for i := 0; i < 8; i++ {
			sizes[i] = microPPN + (shape>>(3*i))&7
		}
		if _, e := sim.NewTopology(sizes); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	l.sample("sim.topology_miss_us", scale(ns, 1e-3))
	l.values["sim.topology_miss_allocs"] = allocs
	ns, _ = timeCalls(l.probeReps, func() {
		if _, e := sim.Uniform(microNodes, microPPN); e != nil {
			err = e
		}
	})
	l.sample("sim.topology_hit_us", scale(ns, 1e-3))
	model := sim.HazelHenCray()
	const batch = 1000
	ns, _ = timeCalls(l.probeReps, func() {
		for i := 0; i < batch; i++ {
			sink += int64(model.XferCost(sim.HopNet, microBytes+i))
		}
	})
	l.sample("sim.xfer_cost_ns", scale(ns, 1.0/batch))
	return err
}

func emptyBody(*mpi.Proc) error { return nil }

// probeWorld times building a world, its first Run with an empty body
// (dispatch and hand-off only) and closing it.
func probeWorld(l *layerSet, engine string, build func() (*mpi.World, error)) error {
	var w *mpi.World
	var err error
	buildNs, buildAllocs := timeCalls(l.probeReps, func() {
		if w != nil {
			w.Close()
		}
		if err == nil {
			w, err = build()
		}
	})
	if err != nil {
		return err
	}
	w.Close()
	var runNs, closeNs []float64
	var runAllocs float64
	for i := 0; i < l.probeReps; i++ {
		if w, err = build(); err != nil {
			return err
		}
		ns, allocs := timeCalls(1, func() { err = w.Run(emptyBody) })
		if err != nil {
			return err
		}
		runNs, runAllocs = append(runNs, ns[0]), runAllocs+allocs/float64(l.probeReps)
		t0 := time.Now()
		w.Close()
		closeNs = append(closeNs, float64(time.Since(t0)))
	}
	l.sample("mpi.world_build_"+engine+"_ms", scale(buildNs, 1e-6))
	l.values["mpi.world_build_"+engine+"_allocs"] = buildAllocs
	l.sample("mpi.run_empty_"+engine+"_ms", scale(runNs, 1e-6))
	l.values["mpi.run_empty_"+engine+"_allocs"] = runAllocs
	if engine == "goroutine" {
		l.sample("mpi.world_close_ms", scale(closeNs, 1e-6))
	}
	return nil
}

func probeGoroutineWorld(l *layerSet) error {
	topo, err := sim.Uniform(microNodes, microPPN)
	if err != nil {
		return err
	}
	return probeWorld(l, "goroutine", func() (*mpi.World, error) { return mpi.NewWorld(sim.HazelHenCray(), topo) })
}

// probeEventWorld measures serve-cold's largest shape: 65,536 ranks on
// the event engine, folded to one node's worth.
func probeEventWorld(l *layerSet) error {
	c := coldShapes[0]
	build := func() (*mpi.World, error) { return replayWorld(c.query(c.lo), c.ppn) }
	if err := probeWorld(l, "event", build); err != nil {
		return err
	}
	w, err := build()
	if err != nil {
		return err
	}
	defer w.Close()
	ns, _ := timeCalls(l.probeReps, w.ResetClocks)
	l.sample("mpi.reset_clocks_us", scale(ns, 1e-3))
	return nil
}

func probePingPong(l *layerSet) error {
	topo, err := sim.Uniform(2, 1)
	if err != nil {
		return err
	}
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo)
	if err != nil {
		return err
	}
	defer w.Close()
	const trips = 1000
	body := func(p *mpi.Proc) error {
		c, buf := p.CommWorld(), mpi.Sized(8)
		for i := 0; i < trips; i++ {
			if p.Rank() == 0 {
				if err := c.Send(buf, 1, 1); err != nil {
					return err
				}
				if _, err := c.Recv(buf, 1, 2); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(buf, 0, 1); err != nil {
					return err
				}
				if err := c.Send(buf, 0, 2); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := w.Run(body); err != nil { // the first Run spawns the rank workers
		return err
	}
	ns, allocs := timeCalls(l.probeReps, func() { err = w.Run(body) })
	l.sample("mpi.pingpong_ns_per_msg", scale(ns, 1.0/(2*trips)))
	l.values["mpi.pingpong_allocs_per_msg"] = allocs / (2 * trips)
	return err
}

// probeMessages counts the messages and bytes one fig-micro op sends,
// from sim.Tracer's send events: exact, not timed.
func probeMessages(l *layerSet) error {
	topo, err := sim.Uniform(microNodes, microPPN)
	if err != nil {
		return err
	}
	events := sim.NewTracer()
	for _, comp := range microComponents {
		if _, err := runOnFreshWorld(nil, -1, sim.HazelHenCray(), topo, comp.body, microIters, mpi.WithTracer(events)); err != nil {
			return err
		}
	}
	sends := events.Stats().ByKind["send"]
	l.values["mpi.msgs_per_op"] = float64(sends.Count)
	l.values["mpi.bytes_per_op"] = float64(sends.Bytes)
	return nil
}

// probeFigOpEvent runs the fig-micro op on the event engine instead of
// the goroutine one: the two-engine question ROADMAP asks.
func probeFigOpEvent(l *layerSet) error {
	topo, err := sim.Uniform(microNodes, microPPN)
	if err != nil {
		return err
	}
	model := sim.HazelHenCray()
	ns, _ := timeCalls(l.probeReps, func() {
		for _, comp := range microComponents {
			if _, e := runOnFreshWorld(nil, -1, model, topo, comp.body, microIters, mpi.WithEngine(sim.EngineEvent)); e != nil {
				err = e
			}
		}
	})
	l.sample("mpi.fig_op_event_ms", scale(ns, 1e-6))
	return err
}

// probeSlopes reports the cost of one more collective call on a world
// already running: (time of a 10-iteration run - time of a 2-iteration
// run) / 8, which cancels world build, set-up and dispatch.
func probeSlopes(l *layerSet) error {
	topo, err := sim.Uniform(microNodes, microPPN)
	if err != nil {
		return err
	}
	model := sim.HazelHenCray()
	slope := func(metric string, run func(iters int) error) error {
		vals := make([]float64, l.slopePairs)
		for i := range vals {
			var took [2]time.Duration
			for j, iters := range []int{2, 10} {
				t0 := time.Now()
				if err := run(iters); err != nil {
					return err
				}
				took[j] = time.Since(t0)
			}
			vals[i] = (took[1] - took[0]).Seconds() * 1e3 / 8
		}
		l.sample(metric, vals)
		return nil
	}
	fresh := func(body rankBody, opts ...mpi.Option) func(int) error {
		return func(iters int) error {
			_, err := runOnFreshWorld(nil, -1, model, topo, body, iters, opts...)
			return err
		}
	}
	for _, p := range []struct {
		metric string
		run    func(int) error
	}{
		{"coll.hier_allgather_ms_per_iter", fresh(pureAllgatherBody)},
		{"coll.bcast_ms_per_iter", fresh(pureBcastBody)},
		{"hybrid.allgather_ms_per_iter", fresh(hyAllgatherBody)},
		{"hybrid.bcast_ms_per_iter", fresh(hyBcastBody)},
		{"hybrid.bcast_real_ms_per_iter", fresh(hyBcastBody, mpi.WithRealData())},
	} {
		if err := slope(p.metric, p.run); err != nil {
			return err
		}
	}
	// serve-cold's allreduce: 64 x 24 ranks, event engine, warm world.
	c := coldShapes[2]
	w, err := replayWorld(c.query(c.lo), 0)
	if err != nil {
		return err
	}
	defer w.Close()
	return slope("coll.allreduce_event_ms_per_iter", func(iters int) error {
		return w.Run(func(p *mpi.Proc) error {
			body := collBody(nil, -1, c.collective, c.hi)
			for i := 0; i < iters; i++ {
				if err := body(p); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func probeGemm(l *layerSet) error {
	const n = summaBlock
	a, b, c := la.NewMat(n, n), la.NewMat(n, n), la.NewMat(n, n)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float64(i%7), float64(i%5)
	}
	var err error
	ns, _ := timeCalls(l.probeReps, func() { err = la.Gemm(c, a, b) })
	rates := make([]float64, len(ns))
	for i, t := range ns {
		rates[i] = la.GemmFlops(n, n, n) / t * 1e3 // flop/ns -> Mflop/s
	}
	l.sample("la.gemm_mflops", rates)
	return err
}

func probeSpec(l *layerSet) error {
	raw := hotQuery(hotCollectives[0], hotShapes[0], hotLadders[0])
	q, err := spec.Parse(raw)
	if err != nil {
		return err
	}
	_, l.values["spec.parse_allocs"] = timeCalls(l.probeReps, func() { _, err = spec.Parse(raw) })
	_, l.values["spec.fingerprint_allocs"] = timeCalls(l.probeReps, func() { _, err = q.Fingerprint() })
	var ns []float64
	ns, l.values["spec.price_allocs"] = timeCalls(l.probeReps, func() { _, err = spec.Price(q) })
	l.sample("spec.price_us", scale(ns, 1e-3))
	return err
}

// probePool times a world-pool checkout that finds its world resident,
// on serve-cold's largest shape.
func probePool(l *layerSet) error {
	c := coldShapes[0]
	q, err := spec.Parse(c.query(c.lo))
	if err != nil {
		return err
	}
	topo, err := q.Topology.Build()
	if err != nil {
		return err
	}
	key := spec.ShapeKey{Machine: q.Machine, Topo: topo, Engine: sim.EngineEvent, FoldUnit: c.ppn, Tuning: q.Tuning.Spec()}
	build := func() (*mpi.World, error) { return replayWorld(c.query(c.lo), c.ppn) }
	pool := spec.NewWorldPool(spec.PoolConfig{MaxCheckouts: 4 * l.probeReps})
	defer pool.Close()
	pw, err := pool.Checkout(key, build)
	if err != nil {
		return err
	}
	pool.Checkin(pw)
	ns, allocs := timeCalls(l.probeReps, func() {
		pw, e := pool.Checkout(key, build)
		if e != nil {
			err = e
			return
		}
		pool.Checkin(pw)
	})
	if st := pool.Stats(); err == nil && st.Misses != 1 {
		err = fmt.Errorf("pool probe: %d misses, want the first checkout only", st.Misses)
	}
	l.sample("spec.pool_checkout_hit_us", scale(ns, 1e-3))
	l.values["spec.pool_checkout_hit_allocs"] = allocs
	return err
}

// probeDaemon measures what only a running daemon can show: the exact
// allocations of a hit and of encoding its body, the /metrics render,
// and the socket round trip of a hit over loopback less its handler.
func probeDaemon(l *layerSet) error {
	srv := newDaemon()
	defer closeDaemon(srv)
	w := newRespWriter()
	rq, err := newRequest(hotQuery(hotCollectives[0], hotShapes[0], hotLadders[0]))
	if err != nil {
		return err
	}
	rq.serve(srv, w)
	if w.code != http.StatusOK {
		return fmt.Errorf("daemon probe: status %d: %s", w.code, w.body)
	}
	body := bytes.Clone(w.body)
	var res spec.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	var buf bytes.Buffer
	_, l.values["server.encode_allocs"] = timeCalls(l.probeReps, func() { err = encodeResult(&buf, &res) })
	if err != nil {
		return err
	}
	handlerNs, allocs := timeCalls(l.socketHits, func() { rq.serve(srv, w) })
	l.values["server.hit_handler_allocs"] = allocs
	if w.cache() != "hit" || !bytes.Equal(w.body, body) {
		return fmt.Errorf("daemon probe: X-Cache %q, body differs: %v", w.cache(), !bytes.Equal(w.body, body))
	}

	metrics, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	ns, allocs := timeCalls(l.probeReps, func() {
		w.reset()
		srv.ServeHTTP(w, metrics)
	})
	if w.code != http.StatusOK {
		return fmt.Errorf("daemon probe: /metrics status %d", w.code)
	}
	l.sample("server.metrics_render_us", scale(ns, 1e-3))
	l.values["server.metrics_render_allocs"] = allocs

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	rtt := make([]float64, l.socketHits)
	for i := range rtt {
		t0 := time.Now()
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(rq.raw))
		if err != nil {
			return err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		rtt[i] = float64(time.Since(t0))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(buf.Bytes(), body) {
			return fmt.Errorf("daemon probe: socket hit answered %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
		}
	}
	handler := median(handlerNs)
	for i := range rtt {
		rtt[i] = (rtt[i] - handler) / 1e3
	}
	l.sample("net.loopback_rtt_us", rtt)
	return nil
}

// probeTune measures the tuning store no workload stresses: lookups in
// a 1,000-entry store and a save/load round trip of it.
func probeTune(l *layerSet) error {
	const entries = 1000
	store := tune.NewStore()
	keys := make([]tune.Key, entries)
	for i := range keys {
		keys[i] = tune.Key{Collective: "allreduce", CommSize: 1536, Bytes: 8 * (i + 1), Count: i + 1, Hop: "net", TopoFP: "00000000deadbeef"}
		store.Put(keys[i], tune.Entry{Algorithm: "recdbl", WinnerPs: int64(1000 + i)})
	}
	ns, allocs := timeCalls(l.probeReps, func() {
		for _, k := range keys {
			if e, ok := store.Lookup(k); ok {
				sink += e.WinnerPs
			}
		}
	})
	l.sample("tune.lookup_ns", scale(ns, 1.0/entries))
	l.values["tune.lookup_allocs"] = allocs / entries

	// Inside the working directory: the benchmark writes nowhere else.
	dir, err := os.MkdirTemp(".", ".benchmark-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store.jsonl")
	ns, _ = timeCalls(max(l.probeReps/5, 1), func() {
		if e := store.Save(path); e != nil {
			err = e
		}
	})
	l.sample("tune.save_ms", scale(ns, 1e-6))
	ns, _ = timeCalls(max(l.probeReps/5, 1), func() {
		loaded, e := tune.Load(path)
		if e == nil && loaded.Len() != entries {
			e = fmt.Errorf("tune probe: loaded %d entries, saved %d", loaded.Len(), entries)
		}
		if e != nil {
			err = e
		}
	})
	l.sample("tune.load_ms", scale(ns, 1e-6))
	return err
}

// shaKernel times a dependency-bound kernel (SHA-256 over 256 KiB). It
// barely moves with the host's slow mode (see refKernel), which is why
// it is reported next to the kernel that does.
func shaKernel(reps int) []float64 {
	block := make([]byte, 256<<10)
	ns, _ := timeCalls(reps, func() {
		sum := sha256.Sum256(block)
		sink += int64(sum[0])
	})
	return ns
}

// cpuStat is the machine-wide CPU accounting of /proc/stat, in ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user .. steal; guest time is already inside user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st, nil
}

func readLoadAvg() (float64, error) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	first, _, _ := strings.Cut(string(data), " ")
	return strconv.ParseFloat(first, 64)
}
