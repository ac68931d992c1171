// Package tbwf is a Go reproduction of "Timeliness-Based Wait-Freedom: A
// Gracefully Degrading Progress Condition" (Aguilera and Toueg, PODC 2008).
//
// The library lives under internal/ (see DESIGN.md for the inventory):
//
//   - internal/core — the TBWF universal transformation (Figures 7–8) and
//     run-level progress verdicts;
//   - internal/omega, internal/omegaab — the dynamic leader elector Ω∆
//     from atomic registers (Figure 3) and from abortable registers only
//     (Figures 4–6);
//   - internal/monitor — dynamic activity monitors A(p,q) (Figure 2);
//   - internal/qa — wait-free query-abortable objects from abortable
//     registers; internal/objtype — ready-made sequential types;
//   - internal/sim, internal/rt — the deterministic step-level simulation
//     kernel and the live goroutine runtime the algorithms run on;
//   - internal/register — atomic and abortable registers with
//     pluggable abort adversaries;
//   - internal/baseline, internal/consensus — the boosting baselines the
//     paper contrasts with, and consensus from abortable registers + Ω;
//   - internal/exp — the E1–E10 experiment harness behind cmd/tbwf-bench.
//
// The benchmarks in bench_test.go (this directory) cover one experiment
// each; run them with:
//
//	go test -bench=. -benchmem
package tbwf
