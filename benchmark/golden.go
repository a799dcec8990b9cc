package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenPath is where -update-golden rewrites the pins, relative to the
// repository root the benchmark is run from.
const goldenPath = "benchmark/testdata/golden.json"

//go:embed testdata/golden.json
var goldenJSON []byte

// golden holds the pinned virtual picoseconds of every op component.
// Simulated time is deterministic, so it is not a metric: an op whose
// virtual time differs from its pin is a failed op.
type golden struct {
	// Pins maps "<workload>/<component>" to virtual picoseconds.
	Pins map[string]int64 `json:"pins"`

	// learned holds the pins a run makes for itself: components whose
	// inputs come from a seed other than goldenSeed, and, when
	// updating, every component seen.
	learned  map[string]int64
	updating bool
}

func loadGolden() (*golden, error) {
	g := &golden{learned: map[string]int64{}}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// check reports whether ps is the pinned value of key. A key with no
// pin fails, except while updating, when its first value becomes the
// pin and a later different value still fails (the component does not
// repeat, so it cannot be pinned).
func (g *golden) check(key string, ps int64) bool {
	if want, ok := g.Pins[key]; ok {
		return want == ps
	}
	if g.updating {
		g.learn(key, ps)
	}
	want, ok := g.learned[key]
	return ok && want == ps
}

// learn pins key to ps for this run unless it already has a value.
func (g *golden) learn(key string, ps int64) {
	if _, ok := g.learned[key]; !ok {
		g.learned[key] = ps
	}
}

// save writes the learned pins as the new golden file.
func (g *golden) save() error {
	out, err := json.MarshalIndent(struct {
		Pins map[string]int64 `json:"pins"`
	}{g.learned}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(out, '\n'), 0o644)
}
