// Package repro is a from-scratch Go reproduction of
//
//	Zhou, Gracia, Schneider: "MPI Collectives for Multi-core Clusters:
//	Optimized Performance of the Hybrid MPI+MPI Parallel Codes",
//	ICPP 2019 (arXiv:2007.06892).
//
// The repository builds everything the paper depends on — a
// deterministic virtual-time cluster simulator (internal/sim), an
// MPI-like runtime with communicators, point-to-point messaging and
// MPI-3 shared-memory windows (internal/mpi), the classic pure-MPI
// collective algorithms with library-style tuning (internal/coll), the
// paper's hybrid MPI+MPI collectives (internal/hybrid), dense linear
// algebra (internal/la), and the two application benchmarks, SUMMA
// (internal/summa) and BPMF (internal/bpmf) — plus a harness that
// regenerates every figure of the evaluation: internal/bench computes
// the tables, and cmd/experiments, the one program that prints them,
// pins its report in cmd/experiments/testdata/report.golden.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The root-level benchmarks (bench_test.go) expose one
// testing.B entry per figure.
package repro
