// Command tbwf-fuzz explores the schedule space of the repo's
// constructions: it sweeps seeded adversarial schedules (random walks,
// phase-locking patterns, preemption-bounded runs, and DLS timing
// adversaries with explicit (Φ,Δ) bounds), crash injections, and
// abort/effect policy tapes across the registered fuzz targets, checks
// every run with the targets' property oracles, and writes each failure as
// a JSON artifact that replays byte-exactly.
//
// Beyond the blind sweep it has two guided modes: -guided runs the
// coverage-feedback loop (novel state signatures spawn mutated neighbor
// plans), and -frontier sweeps an explicit (Φ,Δ) grid under the DLS
// adversary and emits the per-cell, per-oracle pass/fail frontier map.
//
// Usage:
//
//	tbwf-fuzz -list
//	tbwf-fuzz -target all -seeds 32 -budget 200000 -out artifacts/
//	tbwf-fuzz -target heartbeat-single -seeds 8 -shrink
//	tbwf-fuzz -target qa-counter -guided -seeds 64
//	tbwf-fuzz -target frontier/monitor-fixed -frontier 'phi=1..8,delta=0,8,32' -frontier-out BENCH_frontier.json
//	tbwf-fuzz -replay artifacts/heartbeat-single-seed3.json
//	tbwf-fuzz -replay artifacts/heartbeat-single-seed3.json -shrink
//
// Exit status is non-zero when any oracle failed (or a replayed artifact
// did not reproduce), so the bounded CI smoke run doubles as a regression
// gate. -frontier is the exception: ablated targets failing across the
// grid is the data the sweep exists to collect, so only infrastructure
// errors are fatal there.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tbwf/internal/exp"
	"tbwf/internal/explore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tbwf-fuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tbwf-fuzz", flag.ContinueOnError)
	target := fs.String("target", "all", `target name, or "all" for every non-ablated target`)
	budget := fs.Int64("budget", 0, "step budget per run (0 = per-target default)")
	seeds := fs.Int("seeds", 16, "seeds per target")
	seed0 := fs.Int64("seed0", 1, "first seed of the sweep")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = one per CPU)")
	shrink := fs.Bool("shrink", false, "minimize failure artifacts (with -replay: shrink the artifact)")
	shrinkAttempts := fs.Int("shrink-attempts", 0, "re-executions per shrink (0 = default)")
	outDir := fs.String("out", "", "directory for failure artifacts (empty = don't write)")
	replay := fs.String("replay", "", "replay an artifact file instead of fuzzing")
	list := fs.Bool("list", false, "list registered targets and exit")
	includeAblated := fs.Bool("include-ablated", false, `with -target all: include the ablated (expected-failing) targets`)
	guided := fs.Bool("guided", false, "coverage-guided mode: novel state signatures spawn mutated plans (-seeds is the total plan budget)")
	mutants := fs.Int("mutants", 0, "with -guided: mutants spawned per novel run (0 = default)")
	frontier := fs.String("frontier", "", `sweep a (phi,delta) grid under the DLS adversary, e.g. 'phi=1..8,delta=0,8,32' (-seeds runs per cell)`)
	frontierOut := fs.String("frontier-out", "", "with -frontier: write the JSON frontier document here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateParallel(fs, *parallel); err != nil {
		return err
	}

	if *list {
		targets := explore.Targets()
		nameW, oraclesW := 0, 0
		for _, t := range targets {
			nameW = max(nameW, len(t.Name))
			oraclesW = max(oraclesW, len(strings.Join(t.Oracles, ",")))
		}
		for _, t := range targets {
			mark := " "
			if t.Ablated {
				mark = "!"
			}
			fmt.Fprintf(out, "%s %-*s n=%d steps=%-8d oracles=%-*s %s\n",
				mark, nameW, t.Name, t.N, t.Steps, oraclesW, strings.Join(t.Oracles, ","), t.Desc)
		}
		fmt.Fprintln(out, "\ntargets marked ! are ablated: deliberately broken, expected to fail")
		return nil
	}

	if *replay != "" {
		return replayArtifact(*replay, *shrink, *shrinkAttempts, out)
	}

	targets, err := selectTargets(*target, *includeAblated || *frontier != "")
	if err != nil {
		return err
	}
	if *frontier != "" {
		return runFrontier(targets, *frontier, *seeds, *seed0, *budget, *parallel, *frontierOut, out)
	}
	if *guided {
		return runGuided(targets, *seeds, *seed0, *budget, *parallel, *mutants, *outDir, out)
	}
	sum, err := explore.Fuzz(explore.Config{
		Targets:        targets,
		Seeds:          *seeds,
		BaseSeed:       *seed0,
		Budget:         *budget,
		Parallel:       *parallel,
		Shrink:         *shrink,
		ShrinkAttempts: *shrinkAttempts,
	})
	if err != nil {
		return err
	}

	t := &exp.Table{
		ID:      "FUZZ",
		Title:   fmt.Sprintf("schedule-space sweep: %d targets × %d seeds (seed0=%d)", len(targets), *seeds, *seed0),
		Columns: []string{"target", "runs", "failures", "vacuous"},
	}
	for _, ts := range sum.PerTarget {
		t.AddRow(ts.Target, ts.Runs, ts.Failures, ts.Vacuous)
	}
	if *budget > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("step budget %d per run (overrides target defaults)", *budget))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("coverage: %d trace hashes, %d state signatures",
		sum.Coverage.TraceHashes, sum.Coverage.StateSigs))
	fmt.Fprintln(out, t)

	for _, f := range sum.Findings {
		v := f.Artifact.Verdicts
		first := ""
		for _, vd := range v {
			if !vd.OK {
				first = vd.String()
				break
			}
		}
		fmt.Fprintf(out, "FAIL %s seed %d: %s\n", f.Target, f.Seed, first)
		if f.ShrinkStats != nil {
			fmt.Fprintf(out, "     shrunk: %s\n", f.ShrinkStats)
		}
	}
	for _, e := range sum.Errors {
		fmt.Fprintf(out, "ERROR %s\n", e)
	}

	if *outDir != "" && len(sum.Findings) > 0 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for _, f := range sum.Findings {
			if err := writeArtifact(*outDir, fmt.Sprintf("%s-seed%d.json", f.Target, f.Seed), f.Artifact); err != nil {
				return err
			}
			if f.Shrunk != nil {
				if err := writeArtifact(*outDir, fmt.Sprintf("%s-seed%d.min.json", f.Target, f.Seed), f.Shrunk); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(out, "wrote %d artifact(s) to %s\n", len(sum.Findings), *outDir)
	}

	if sum.Failures > 0 || len(sum.Errors) > 0 {
		return fmt.Errorf("%d of %d runs failed", sum.Failures+len(sum.Errors), sum.Runs)
	}
	fmt.Fprintf(out, "all %d runs passed\n", sum.Runs)
	return nil
}

// selectTargets resolves the -target flag: a registry name, or "all".
func selectTargets(name string, includeAblated bool) ([]explore.Target, error) {
	if name == "all" {
		var out []explore.Target
		for _, t := range explore.Targets() {
			if t.Ablated && !includeAblated {
				continue
			}
			out = append(out, t)
		}
		return out, nil
	}
	var out []explore.Target
	for _, part := range strings.Split(name, ",") {
		t, err := explore.TargetByName(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// replayArtifact re-executes a stored artifact and verifies the replay
// reproduces the recorded verdicts and trace hash; with shrink set it also
// minimizes the artifact and writes <path>.min.json.
func replayArtifact(path string, shrink bool, shrinkAttempts int, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := explore.DecodeArtifact(data)
	if err != nil {
		return err
	}
	res, err := explore.Replay(a)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %s: target %s seed %d, %d steps\n", filepath.Base(path), a.Plan.Target, a.Plan.Seed, res.Outcome.Steps)
	for _, v := range res.Outcome.Verdicts {
		fmt.Fprintf(out, "  %s\n", v)
	}
	fmt.Fprintf(out, "trace hash: %s (recorded %s)\n", res.Outcome.TraceHash, a.TraceHash)
	if !res.Exact() {
		return fmt.Errorf("replay diverged from the artifact (hash match: %v, verdicts match: %v)", res.HashMatch, res.VerdictsMatch)
	}
	fmt.Fprintln(out, "replay reproduces the artifact byte-exactly")

	if shrink {
		min, stats, err := explore.Shrink(a, shrinkAttempts)
		if err != nil {
			return fmt.Errorf("shrink: %w", err)
		}
		minPath := strings.TrimSuffix(path, ".json") + ".min.json"
		enc, err := min.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(minPath, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "shrunk: %s\nwrote %s\n", stats, minPath)
	}
	return nil
}

// runGuided runs the coverage-feedback loop on each target in turn and
// reports the corpus/coverage counters alongside any findings.
func runGuided(targets []explore.Target, plans int, seed0, budget int64, parallel, mutants int, outDir string, out io.Writer) error {
	failures, errors := 0, 0
	for _, tgt := range targets {
		res, err := explore.FuzzGuided(explore.GuidedConfig{
			Target:        tgt,
			Plans:         plans,
			BaseSeed:      seed0,
			Budget:        budget,
			Parallel:      parallel,
			MutantsPerHit: mutants,
		})
		if err != nil {
			return err
		}
		c := res.Coverage
		fmt.Fprintf(out, "%-26s %d runs (%d mutants), %d failures; coverage: %d trace hashes, %d state signatures, corpus %d\n",
			tgt.Name, res.Runs, c.Mutants, res.Failures, c.TraceHashes, c.StateSigs, c.Corpus)
		for _, f := range res.Findings {
			if v := f.Artifact.FirstFailingVerdict(); v != "" {
				fmt.Fprintf(out, "FAIL %s seed %d: %s\n", f.Target, f.Seed, v)
			}
			if outDir != "" {
				if err := os.MkdirAll(outDir, 0o755); err != nil {
					return err
				}
				if err := writeArtifact(outDir, fmt.Sprintf("%s-seed%d.json", f.Target, f.Seed), f.Artifact); err != nil {
					return err
				}
			}
		}
		for _, e := range res.Errors {
			fmt.Fprintf(out, "ERROR %s\n", e)
		}
		failures += res.Failures
		errors += len(res.Errors)
	}
	if failures > 0 || errors > 0 {
		return fmt.Errorf("%d failures, %d errors", failures, errors)
	}
	fmt.Fprintln(out, "all guided runs passed")
	return nil
}

// runFrontier sweeps the (Φ,Δ) grid and prints the rendered map. Oracle
// failures are data here, not a failed exit — ablated targets failing at
// harsh cells is the frontier — so only infrastructure errors are fatal.
func runFrontier(targets []explore.Target, spec string, seeds int, seed0, budget int64, parallel int, outPath string, out io.Writer) error {
	phis, deltas, err := explore.ParseFrontierSpec(spec)
	if err != nil {
		return err
	}
	doc, err := explore.MapFrontier(explore.FrontierConfig{
		Targets:  targets,
		Phis:     phis,
		Deltas:   deltas,
		Seeds:    seeds,
		BaseSeed: seed0,
		Budget:   budget,
		Parallel: parallel,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "frontier sweep: %d targets × %d cells × %d seeds (dls adversary)\n\n",
		len(doc.Targets), len(phis)*len(deltas), seeds)
	fmt.Fprintln(out, explore.RenderFrontierMap(doc))
	if outPath != "" {
		enc, err := doc.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, enc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", outPath)
	}
	errs := 0
	for _, tf := range doc.Targets {
		for _, c := range tf.Cells {
			errs += c.Errors
		}
	}
	if errs > 0 {
		return fmt.Errorf("%d runs failed to execute", errs)
	}
	return nil
}

func writeArtifact(dir, name string, a *explore.Artifact) error {
	enc, err := a.Encode()
	if err != nil {
		return err
	}
	// Target names may contain '/' (net/partition, frontier/monitor-fixed);
	// flatten them so the artifact lands in dir itself.
	return os.WriteFile(filepath.Join(dir, strings.ReplaceAll(name, "/", "-")), enc, 0o644)
}

// validateParallel rejects an explicitly-set non-positive -parallel. The
// unset default (0) keeps its one-worker-per-CPU meaning; asking for zero
// or negative workers is always a mistake, so it fails loudly instead of
// being silently remapped.
func validateParallel(fs *flag.FlagSet, parallel int) error {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			set = true
		}
	})
	if set && parallel <= 0 {
		return fmt.Errorf("-parallel must be positive, got %d (omit the flag for one worker per CPU)", parallel)
	}
	return nil
}
