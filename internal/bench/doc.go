// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Figs. 7-12) on the simulated
// cluster, printing the same series the paper plots. See DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured notes.
//
// Beyond the figures, the package carries the sweep dimensions behind
// cmd/perf -sweep (the Dimensions table: selection crossovers,
// multi-level topologies, scale-out to 1,048,576 ranks, 4-dim stencil
// halos, deterministic noise levels, measured tuning) and the tests
// that pin virtual time to the picosecond: the figure-scale goldens of
// determinism_test.go and the sweep golden in testdata/. Every
// cross-engine and cross-reuse-path check in the sweeps goes through
// spec.Referee.
//
// The package pins virtual time only. How fast the host runs the
// simulator is measured from outside, with spread, by benchmark/.
package bench
