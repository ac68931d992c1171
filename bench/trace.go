package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its own call into the layer. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID     int64
	Parent int64 // 0 for a request's root span
	Req    int64 // the spans of one request share it
	Name   string
	Start  int64
	End    int64
	// N is a count taken at the same boundary (steps spent inside a wait,
	// ops in a burst); 0 when the span carries none.
	N int64
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// *recorder is the untraced run: every method is a no-op, so workloads
// call them unconditionally.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanBuf is one goroutine's slice of the trace: spans are appended
// without synchronisation and merged when the run ends.
type spanBuf struct {
	rec   *recorder
	spans []span
}

// buf returns a span buffer for the calling goroutine's exclusive use.
func (r *recorder) buf() *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{rec: r}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// id reserves a span identifier, so children can name their parent before
// the parent's end time is known.
func (b *spanBuf) id() int64 {
	if b == nil {
		return 0
	}
	return b.rec.nextID.Add(1)
}

// put records a finished span.
func (b *spanBuf) put(id, parent, req int64, name string, start, end time.Time, n int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(b.rec.epoch)), End: int64(end.Sub(b.rec.epoch)), N: n,
	})
}

// all merges every buffer, ordered by start time. Call it only after the
// recording goroutines have finished. An invocation the end of the run cut
// off has recorded children but no root; its spans are dropped, so every
// span in the result hangs from a finished request.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var merged []span
	present := map[int64]bool{}
	for _, b := range r.bufs {
		merged = append(merged, b.spans...)
		for _, s := range b.spans {
			present[s.ID] = true
		}
	}
	// Children are recorded before their parents finish, so one pass in
	// reverse recording order is not enough in general; a span tree is at
	// most a few levels deep, so iterate until nothing more falls away.
	out := merged
	for dropped := true; dropped; {
		dropped = false
		kept := out[:0:0]
		for _, s := range out {
			if s.Parent != 0 && !present[s.Parent] {
				delete(present, s.ID)
				dropped = true
				continue
			}
			kept = append(kept, s)
		}
		out = kept
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// checkNesting verifies the trace's shape: every child lies inside its
// parent, belongs to the same request, and no self time is negative.
func checkNesting(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Req != p.Req {
			return fmt.Errorf("span %d (%s) of request %d has parent of request %d", s.ID, s.Name, s.Req, p.Req)
		}
	}
	for id, t := range selfTimes(spans) {
		if t < 0 {
			return fmt.Errorf("span %d has negative self time %d", id, t)
		}
	}
	return nil
}

// layerBudget is the outside-in budget of one traced workload: for the
// requests rooted at spans named root, the median self time of every span
// name (µs), their sum, and the median root duration the sum is to be set
// against.
type layerBudget struct {
	SelfP50US map[string]float64
	SumUS     float64
	RootP50US float64
	Requests  int
}

// budget computes the layer budget over the requests whose root span has
// the given name. A request that lacks a span name contributes 0 for it,
// so the per-name medians are taken over the same set of requests.
func budget(spans []span, root string) layerBudget {
	self := selfTimes(spans)
	perReq := map[int64]map[string]int64{}
	var rootDur []float64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			perReq[s.Req] = map[string]int64{}
			rootDur = append(rootDur, float64(s.End-s.Start)/1e3)
		}
	}
	names := map[string]bool{}
	for _, s := range spans {
		if m, ok := perReq[s.Req]; ok {
			m[s.Name] += self[s.ID]
			names[s.Name] = true
		}
	}
	b := layerBudget{SelfP50US: map[string]float64{}, Requests: len(perReq), RootP50US: median(rootDur)}
	for name := range names {
		v := make([]float64, 0, len(perReq))
		for _, m := range perReq {
			v = append(v, float64(m[name])/1e3)
		}
		b.SelfP50US[name] = median(v)
		b.SumUS += b.SelfP50US[name]
	}
	return b
}

// traceFile is the on-disk form of a traced run: span names are interned
// and each span is the row [id, parent, req, name index, start, end, n].
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Unit     string     `json:"unit"`
	Columns  []string   `json:"columns"`
	Names    []string   `json:"names"`
	Spans    [][7]int64 `json:"spans"`
}

// writeTrace writes the spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	tf := traceFile{
		Workload: workload, Seed: seed, Unit: "ns since run start",
		Columns: []string{"id", "parent", "req", "name", "start", "end", "n"},
		Spans:   make([][7]int64, len(spans)),
	}
	idx := map[string]int64{}
	for i, s := range spans {
		ni, ok := idx[s.Name]
		if !ok {
			ni = int64(len(tf.Names))
			idx[s.Name] = ni
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans[i] = [7]int64{s.ID, s.Parent, s.Req, ni, s.Start, s.End, s.N}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// readTrace loads a trace file back into spans (the test and offline
// analysis use it).
func readTrace(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spans := make([]span, len(tf.Spans))
	for i, r := range tf.Spans {
		if r[3] < 0 || r[3] >= int64(len(tf.Names)) {
			return nil, fmt.Errorf("%s: span %d names index %d of %d", path, r[0], r[3], len(tf.Names))
		}
		spans[i] = span{ID: r[0], Parent: r[1], Req: r[2], Name: tf.Names[r[3]], Start: r[4], End: r[5], N: r[6]}
	}
	return spans, nil
}
