// Package migflow is a from-scratch Go reproduction of "Multiple
// Flows of Control in Migratable Parallel Programs" (Gengbin Zheng,
// Orion Sky Lawlor, Laxmikant V. Kalé — ICPP 2006): the four
// flow-of-control mechanisms the paper studies, the three migratable
// user-level thread techniques (stack copying, isomalloc, memory
// aliasing), and the Charm++/Converse/AMPI-style runtime stack they
// live in, evaluated by a benchmark harness that regenerates every
// table and figure of the paper.
//
// Beyond the thread techniques, the AMPI layer gives every MPI rank a
// choice of two flow backends behind one programming model
// (internal/ampi): ULT mode runs each rank on a migratable user-level
// thread, event mode runs the same rank program as a continuation
// record (a 248-byte slot plus a frame stack) dispatched inline by its
// simulating PE — the
// configuration that scales to a million ranks, with BigSim's
// event-driven backend (internal/bigsim) doing the same for target
// flows. Both backends interpret one shared program tree, so
// predicted virtual time is bit-identical across modes, PE counts,
// and load-balancing decisions; migration moves a thread's stack in
// ULT mode and a record in event mode (migration-by-record), one LB
// plan either way.
//
// Collectives run over spanning trees that can follow the machine's
// torus/PE-group hierarchy (topology-aware trees with per-edge hop
// accounting), and every collective exists in blocking and
// nonblocking (MPI-3 I-collective) form: the blocking call is
// literally the nonblocking start followed by its wait, so programs
// can hide exchange and reduction latency under compute (split-phase
// halo exchange, pipelined Iallreduce) without changing results or
// virtual time by a bit.
//
// Start with README.md for the architecture tour, DESIGN.md for the
// system inventory and per-experiment index, and EXPERIMENTS.md for
// paper-versus-measured results. The library lives under internal/;
// runnable entry points are cmd/repro (the whole evaluation),
// cmd/{flowbench,stackbench,limits,bigsim,btmz} (per-figure tools)
// and examples/ (API walkthroughs).
package migflow
