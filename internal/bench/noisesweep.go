package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/spec"
)

// The noise sweep is the robustness dimension of cmd/perf -sweep: the
// same collective ladder simulated under a ladder of deterministic
// noise configurations — link congestion, seeded jitter, straggler
// ranks and their combination — reporting how far each level stretches
// the virtual makespan over the clean run. Every level goes through
// spec.Referee on five paths (goroutine engine warm, event engine
// warm, per-point referee worlds, pooled worlds and a warm pooled
// re-run) and the sweep fails unless all of them agree exactly: it
// doubles as the determinism gate for the noise subsystem.

// NoisePoint is one (noise level, ladder size) measurement.
type NoisePoint struct {
	// Label names the noise level, e.g. "jitter=0.3".
	Label string `json:"label"`
	// Bytes is the ladder entry.
	Bytes int `json:"bytes"`
	// VirtualPs is the exact virtual makespan (Iters operations).
	VirtualPs int64 `json:"virtual_ps"`
	// VirtualUs is the same makespan in microseconds.
	VirtualUs float64 `json:"virtual_us"`
	// SlowdownVsClean is VirtualPs over the clean level's VirtualPs at
	// the same size (1.0 for the clean level itself).
	SlowdownVsClean float64 `json:"slowdown_vs_clean"`
	// BitIdentical records the referee's verdict: every path produced
	// exactly this VirtualPs. A divergence fails the sweep, so a
	// written report always says true.
	BitIdentical bool `json:"bit_identical"`
}

// NoiseSweepReport is the noise section of a sweep report.
type NoiseSweepReport struct {
	Model      string `json:"model"`
	Collective string `json:"collective"`
	Nodes      int    `json:"nodes"`
	PPN        int    `json:"ppn"`
	Iters      int    `json:"iters"`
	// Seed keys every noisy level.
	Seed int64 `json:"seed"`
	// BitIdentical is the conjunction over every point.
	BitIdentical bool         `json:"bit_identical"`
	Points       []NoisePoint `json:"points"`
}

// Fprint lists every point.
func (s *NoiseSweepReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\nnoise-sweep (%s, %s %dx%d, seed %d, all paths bit-identical %v):\n",
		s.Model, s.Collective, s.Nodes, s.PPN, s.Seed, s.BitIdentical)
	for _, p := range s.Points {
		fmt.Fprintf(w, "  %-18s %8dB  virtual %10.2f us  slowdown %5.2fx\n",
			p.Label, p.Bytes, p.VirtualUs, p.SlowdownVsClean)
	}
}

// noiseLevel is one rung of the noise ladder.
type noiseLevel struct {
	label string
	noise *sim.Noise
}

// noiseLevels is the standard ladder: clean, two congestion factors,
// two jitter amplitudes, a straggler, and everything at once.
func noiseLevels(seed int64) []noiseLevel {
	return []noiseLevel{
		{"clean", nil},
		{"congestion net=2", &sim.Noise{Seed: seed, Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}},
		{"congestion net=8", &sim.Noise{Seed: seed, Congestion: map[sim.HopClass]float64{sim.HopNet: 8}}},
		{"jitter=0.1", &sim.Noise{Seed: seed, Jitter: 0.1}},
		{"jitter=0.5", &sim.Noise{Seed: seed, Jitter: 0.5}},
		{"straggler x8", &sim.Noise{Seed: seed, Stragglers: []int{0}, StragglerFactor: 8}},
		{"mixed", &sim.Noise{Seed: seed, Jitter: 0.3, Stragglers: []int{0}, StragglerFactor: 4,
			Congestion: map[sim.HopClass]float64{sim.HopNet: 2, sim.HopShm: 1.5}}},
	}
}

// noiseSweepSizes is the ladder each level runs.
var noiseSweepSizes = []int{4096, 262144}

// RunNoiseSweep runs the noise dimension on the given machine profile:
// an 8x8 allreduce ladder per noise level, each level refereed across
// both engines and all three world-reuse paths.
func RunNoiseSweep(machine string, seed int64) (*NoiseSweepReport, error) {
	const nodes, ppn, iters = 8, 8, 2
	rep := &NoiseSweepReport{
		Model: machine, Collective: "allreduce",
		Nodes: nodes, PPN: ppn, Iters: iters,
		Seed: seed, BitIdentical: true,
	}
	pool := spec.NewWorldPool(spec.PoolConfig{})
	defer pool.Close()
	pooled := &spec.Exec{Pool: pool}

	clean := map[int]int64{} // bytes -> clean VirtualPs
	for _, lvl := range noiseLevels(seed) {
		q := &spec.Query{
			Machine:    machine,
			Topology:   spec.Topology{Nodes: nodes, PPN: ppn},
			Collective: "allreduce",
			Sizes:      noiseSweepSizes,
			Iters:      iters,
			Noise:      lvl.noise,
			Tuning:     spec.Tuning{Policy: "cost"},
		}
		// The second pooled path replays on the world the first one
		// checked back in.
		ref, err := spec.Referee(context.Background(), q,
			spec.Path{Name: "goroutine/warm", Engine: "goroutine"},
			spec.Path{Name: "event/warm", Engine: "event"},
			spec.Path{Name: "goroutine/per-point", Engine: "goroutine", Exec: &spec.Exec{PerPointWorlds: true}},
			spec.Path{Name: "goroutine/pooled", Engine: "goroutine", Exec: pooled},
			spec.Path{Name: "goroutine/pooled-warm", Engine: "goroutine", Exec: pooled})
		if err != nil {
			return nil, fmt.Errorf("bench: noise sweep %q: %w", lvl.label, err)
		}
		for _, p := range ref.Points {
			if lvl.noise == nil {
				clean[p.Bytes] = p.VirtualPs
			}
			slowdown := 0.0
			if base := clean[p.Bytes]; base > 0 {
				slowdown = float64(p.VirtualPs) / float64(base)
			}
			rep.Points = append(rep.Points, NoisePoint{
				Label: lvl.label, Bytes: p.Bytes,
				VirtualPs: p.VirtualPs, VirtualUs: float64(p.VirtualPs) / 1e6,
				SlowdownVsClean: slowdown, BitIdentical: true,
			})
		}
	}
	return rep, nil
}
