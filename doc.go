// Package repro is a from-scratch Go reproduction of "LockillerTM:
// Enhancing Performance Lower Bounds in Best-Effort Hardware Transactional
// Memory" (Wan, Chao, Li, Han — IPPS 2024).
//
// The library lives under internal/: a discrete-event simulator of a
// 32-core tiled CMP (sim, mem, topology, noc, cache, coherence), the
// best-effort HTM and the paper's three mechanisms (htm, priority,
// coherence), an in-order core model (cpu), STAMP-like workloads (stamp),
// and the evaluation harness (harness, stats), whose Systems() is the one
// definition of every Table II system. Programs use harness.SystemByName
// with harness.Execute for STAMP workloads, or Spec.Config with
// cpu.NewMachine for custom ones (see examples/).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. The benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation section; cmd/lockillerbench renders them as text.
package repro
