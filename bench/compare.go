package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readSet loads a result set (JSON lines of setRecord) and groups the
// untraced runs' end-to-end values by workload and metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec setRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d is not a correct run", path, line, rec.Workload, rec.Seed)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the two-sets criterion measures spread.
func quartiles(values []float64) (q1, q3 float64) {
	x := sortedCopy(values)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

// verdict judges one (workload, metric) pair: how much worse B's median is
// than A's as a share of A's, and whether that is within the bound, a
// breach, or — when the runs of either side spread wider than the bound —
// unresolved. A pair whose every B run beats, or loses to, every A run is
// resolved whatever the spread.
func verdict(d metricDef, a, b []float64) (worse, spread float64, v string) {
	medA, medB := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if medA != 0 {
		worse = sign * (medB - medA) / medA
	}
	spread = max(spreadOf(a), spreadOf(b))
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
	allWorse := sign*(sb[0]-sa[len(sa)-1]) > 0 && sign*(sb[len(sb)-1]-sa[0]) > 0
	switch {
	case worse <= d.Bound && (spread <= d.Bound || allBetter):
		return worse, spread, "ok"
	case worse > d.Bound && (spread <= d.Bound || allWorse):
		return worse, spread, "BREACH"
	default:
		return worse, spread, "unresolved"
	}
}

// compareSets prints, per workload and end-to-end metric, B against A
// under the catalogue's bounds. It reports whether any pair breached.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	breach := false
	fmt.Fprintf(w, "%-11s %-14s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range names {
		if b[wl] == nil {
			return false, fmt.Errorf("%s has no untraced run of %s", pathB, wl)
		}
		for _, d := range endToEnd {
			va, vb := a[wl][d.Name], b[wl][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s: %d values in %s, %d in %s", wl, d.Name, len(va), pathA, len(vb), pathB)
			}
			worse, spread, v := verdict(d, va, vb)
			breach = breach || v == "BREACH"
			fmt.Fprintf(w, "%-11s %-14s %14.4f %14.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl, d.Name, median(va), median(vb), 100*worse, 100*spread, 100*d.Bound, v)
		}
	}
	return breach, nil
}
