// Command tbwf-bench regenerates the evaluation tables E1–E10 described in
// DESIGN.md and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	tbwf-bench                # run every experiment at full budgets
//	tbwf-bench -quick         # smaller budgets (CI-sized)
//	tbwf-bench -run E1,E7     # a subset, by id or name
//	tbwf-bench -parallel 4    # scenario worker-pool size (0: one per CPU)
//	tbwf-bench -stats         # report kernel throughput per experiment
//	tbwf-bench -csv out/      # additionally write one CSV per table
//	tbwf-bench -json out.json  # machine-readable results (see EXPERIMENTS.md)
//	tbwf-bench -list          # list experiments and exit
//	tbwf-bench -check a.json,b.json  # validate result documents and exit
//
// Tables are byte-identical whatever -parallel is; the flag only changes
// wall-clock time. If any experiment fails the error is printed, the
// remaining experiments still run, and the exit code is non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tbwf/internal/exp"
	"tbwf/internal/explore"
	"tbwf/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tbwf-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tbwf-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use reduced budgets")
	runIDs := fs.String("run", "", "comma-separated experiment ids or names (default: all)")
	parallel := fs.Int("parallel", 0, "scenario worker-pool size (<= 0: one worker per CPU)")
	stats := fs.Bool("stats", false, "print kernel execution statistics per experiment")
	csvDir := fs.String("csv", "", "directory to write per-table CSV files into")
	jsonPath := fs.String("json", "", "write machine-readable results to this JSON file")
	list := fs.Bool("list", false, "list experiments and exit")
	check := fs.String("check", "", "validate tbwf-bench/v1 and tbwf-frontier/v1 JSON documents (comma-separated paths, schema-sniffed) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateParallel(fs, *parallel); err != nil {
		return err
	}
	if *check != "" {
		if err := validateCheckAlone(fs); err != nil {
			return err
		}
		failed := 0
		for _, path := range strings.Split(*check, ",") {
			if err := validateBenchFile(strings.TrimSpace(path)); err != nil {
				fmt.Fprintf(os.Stderr, "tbwf-bench: %v\n", err)
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d document(s) failed validation", failed)
		}
		return nil
	}

	experiments := exp.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	if *runIDs != "" {
		var selected []exp.Experiment
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
		experiments = selected
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	opts := exp.Options{Quick: *quick, Parallel: *parallel}
	failed := 0
	doc := benchDoc{
		Schema:   benchSchema,
		Quick:    *quick,
		Parallel: *parallel,
		NumCPU:   runtime.NumCPU(),
		Go:       runtime.Version(),
	}
	for _, e := range experiments {
		var ms0, ms1 runtime.MemStats
		if *jsonPath != "" {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		table, err := e.Run(opts)
		if *jsonPath != "" && err == nil {
			runtime.ReadMemStats(&ms1)
			doc.Benchmarks = append(doc.Benchmarks, benchRecord(e, table.Stats, ms1.Mallocs-ms0.Mallocs, time.Since(start)))
		}
		if err != nil {
			// Print and keep going: one broken experiment must not hide the
			// others' tables. The exit code still reports the failure.
			fmt.Fprintf(os.Stderr, "tbwf-bench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Printf("%s\n(%s, %.1fs)\n", table, e.Name, time.Since(start).Seconds())
		if *stats {
			fmt.Printf("stats: %s\n", formatStats(table.Stats))
		}
		fmt.Println()
		if table.ID == "E1" {
			if chart, err := exp.StaircaseChart(table); err == nil {
				fmt.Printf("%s\n", chart)
			}
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, fmt.Sprintf("%s-%s.csv", strings.ToLower(e.ID), e.Name))
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, doc); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
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

// validateCheckAlone rejects -check beside any other flag: -check
// validates and exits, so an experiment flag next to it would be accepted
// and then silently do nothing.
func validateCheckAlone(fs *flag.FlagSet) error {
	var others []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "check" {
			others = append(others, "-"+f.Name)
		}
	})
	if len(others) > 0 {
		return fmt.Errorf("-check validates documents and exits; it cannot be combined with %s", strings.Join(others, ", "))
	}
	return nil
}

// benchSchema names the JSON document layout; EXPERIMENTS.md documents it.
// The frontier sweep's sibling document (BENCH_frontier.json) carries
// explore.FrontierSchema ("tbwf-frontier/v1"); -check validates both.
const benchSchema = "tbwf-bench/v1"

// validateBenchFile validates one result document by schema sniff.
func validateBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch head.Schema {
	case benchSchema:
		return validateBenchDoc(path, data)
	case explore.FrontierSchema:
		return validateFrontierDoc(path, data)
	default:
		return fmt.Errorf("%s: unknown schema %q", path, head.Schema)
	}
}

// validateBenchDoc checks a tbwf-bench/v1 experiment-table document.
func validateBenchDoc(path string, data []byte) error {
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmark entries", path)
	}
	for _, e := range doc.Benchmarks {
		if e.ID == "" || e.Name == "" {
			return fmt.Errorf("%s: entry with empty id or name", path)
		}
		if e.Steps < 0 || e.StepsPerSec < 0 || e.AllocsPerStep < 0 || e.WallSeconds < 0 {
			return fmt.Errorf("%s: entry %s has negative metrics", path, e.ID)
		}
	}
	fmt.Printf("%s: schema %s, %d experiments\n", path, doc.Schema, len(doc.Benchmarks))
	return nil
}

// validateFrontierDoc checks a frontier document's schema and internal
// consistency — the bench-smoke guard for the committed BENCH_frontier.json.
func validateFrontierDoc(path string, data []byte) error {
	doc, err := explore.DecodeFrontier(data)
	if err != nil {
		return err
	}
	if len(doc.Targets) == 0 || len(doc.Phis) == 0 || len(doc.Deltas) == 0 {
		return fmt.Errorf("%s: empty frontier document (targets=%d phis=%d deltas=%d)",
			path, len(doc.Targets), len(doc.Phis), len(doc.Deltas))
	}
	cells := len(doc.Phis) * len(doc.Deltas)
	for _, tf := range doc.Targets {
		if len(tf.Cells) != cells {
			return fmt.Errorf("%s: target %s has %d cells, grid is %d×%d",
				path, tf.Target, len(tf.Cells), len(doc.Phis), len(doc.Deltas))
		}
		for _, c := range tf.Cells {
			if c.Fails+c.Passes+c.Vacuous+c.Errors != c.Runs {
				return fmt.Errorf("%s: target %s cell (%d,%d): outcomes do not sum to runs",
					path, tf.Target, c.Phi, c.Delta)
			}
		}
	}
	fmt.Printf("%s: schema %s, %d targets × %d cells × %d seeds\n",
		path, doc.Schema, len(doc.Targets), cells, doc.Seeds)
	return nil
}

// benchDoc is the machine-readable result document written by -json.
type benchDoc struct {
	Schema     string       `json:"schema"`
	Quick      bool         `json:"quick"`
	Parallel   int          `json:"parallel"`
	NumCPU     int          `json:"num_cpu"`
	Go         string       `json:"go"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// benchEntry is one experiment's performance record.
type benchEntry struct {
	ID            string  `json:"id"`
	Name          string  `json:"name"`
	Steps         int64   `json:"steps"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	AllocsPerStep float64 `json:"allocs_per_step"`
	WallSeconds   float64 `json:"wall_seconds"`
}

func benchRecord(e exp.Experiment, s sim.RunStats, mallocs uint64, wall time.Duration) benchEntry {
	rec := benchEntry{
		ID:          e.ID,
		Name:        e.Name,
		Steps:       s.Steps,
		StepsPerSec: s.StepsPerSec(),
		WallSeconds: wall.Seconds(),
	}
	if s.Steps > 0 {
		rec.AllocsPerStep = float64(mallocs) / float64(s.Steps)
	}
	return rec
}

func writeBenchJSON(path string, doc benchDoc) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// formatStats renders an aggregated RunStats one-liner. Steps/s is summed
// over the scenarios' kernels, so under -parallel it reflects aggregate
// simulation throughput, not wall-clock.
func formatStats(s sim.RunStats) string {
	fastPct := 0.0
	if s.Steps > 0 {
		fastPct = 100 * float64(s.FastPathSteps) / float64(s.Steps)
	}
	return fmt.Sprintf("%d steps, %.2fM steps/s, %d handoffs, %.1f%% fast-path, %d schedule misses, %.1f KiB trace",
		s.Steps, s.StepsPerSec()/1e6, s.Handoffs, fastPct, s.ScheduleMisses, float64(s.TraceBytes)/1024)
}
