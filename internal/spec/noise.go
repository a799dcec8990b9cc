package spec

import (
	"fmt"

	"repro/internal/sim"
)

// canonicalNoise validates a query's noise block against the topology's
// rank count and returns its canonical form, sim.Noise.Clone: declaration
// order sorted away, and what the simulator ignores (congestion factors
// of 1, all but a rank's earliest failure) dropped. encoding/json emits
// the congestion keys sorted. A block that configures nothing is nil,
// so a query with an empty noise object fingerprints like one without
// the block.
func canonicalNoise(n *sim.Noise, ranks int) (*sim.Noise, error) {
	if err := n.Validate(ranks); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	c := n.Clone()
	if c == nil || c.Seed == 0 && c.StragglerFactor == 0 && !c.Enabled() {
		return nil, nil
	}
	return c, nil
}
