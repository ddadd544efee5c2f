package main

// Spans recorded by the benchmark around its calls into each layer's
// public functions. Stamps are wall-clock Unix nanoseconds: every
// process of a run reads the same host clock, so a worker's spans merge
// with the runner's without any clock sync.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one traced interval. Parent indexes the enclosing span in
// the same list (-1 for a root); Proc is -1 in the runner and the
// worker index in a worker process.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Proc   int    `json:"proc"`
}

// layer is the span name's prefix up to the first dot: the layer whose
// public function the span encloses ("bench" is the benchmark's own
// glue: forced GCs, load generation, result checks).
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder collects spans for one operation. A nil recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	proc  int
	spans []span
}

func newRecorder(traced bool, proc int) *recorder {
	if !traced {
		return nil
	}
	return &recorder{proc: proc}
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Now().UnixNano(), Parent: parent, Proc: r.proc})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil && i >= 0 {
		r.spans[i].End = time.Now().UnixNano()
	}
}

// add records a span whose stamps were already taken.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start.UnixNano(), End: end.UnixNano(), Parent: parent, Proc: r.proc})
	return len(r.spans) - 1
}

// graft appends a worker's span list under parent, rebasing indexes.
func (r *recorder) graft(parent int, sub []span) {
	if r == nil {
		return
	}
	base := len(r.spans)
	for _, s := range sub {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) list() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// selfTimes attributes every instant covered by an operation's spans
// to the innermost spans open at that instant, split evenly when
// several are open side by side (the workers of a sharded run), and
// sums the result per layer. The per-layer totals therefore add up to
// the length of the union of the spans; when every span nests inside
// the root, that is the root's wall time. A child stamped outside its
// parent (a clock or bookkeeping fault) makes the sum exceed the root
// wall, which the tolerance check reports.
func selfTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	if len(spans) == 0 {
		return out
	}
	// isAncestor[a][b]: span a encloses span b in the parent chain.
	anc := make([]map[int]bool, len(spans))
	for i := range spans {
		anc[i] = map[int]bool{}
		for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
			anc[i][p] = true
		}
	}
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var open, leaves []int
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		open = open[:0]
		for i, s := range spans {
			if s.Start <= lo && s.End >= hi {
				open = append(open, i)
			}
		}
		leaves = leaves[:0]
		for _, i := range open {
			inner := false
			for _, j := range open {
				if j != i && anc[j][i] {
					inner = true
					break
				}
			}
			if !inner {
				leaves = append(leaves, i)
			}
		}
		for _, i := range leaves {
			out[spans[i].layer()] += float64(hi-lo) / 1e9 / float64(len(leaves))
		}
	}
	return out
}

// rootWall sums the durations of an operation's root spans.
func rootWall(spans []span) float64 {
	var w float64
	for _, s := range spans {
		if s.Parent < 0 {
			w += float64(s.End-s.Start) / 1e9
		}
	}
	return w
}

// traceReport is the traced run's account of where the time went.
type traceReport struct {
	Wall        float64            // summed root-span wall of the traced operations
	Self        map[string]float64 // per-layer self time
	SelfSum     float64
	SelfErr     float64 // |SelfSum − Wall| / Wall
	Tolerance   float64
	OverheadPct float64 // traced vs untraced median timed phase, in %
}

func buildTraceReport(ops [][]span, tolerance, overheadPct float64) traceReport {
	rep := traceReport{Self: map[string]float64{}, Tolerance: tolerance, OverheadPct: overheadPct}
	for _, sp := range ops {
		rep.Wall += rootWall(sp)
		for l, v := range selfTimes(sp) {
			rep.Self[l] += v
		}
	}
	for _, v := range rep.Self {
		rep.SelfSum += v
	}
	if rep.Wall > 0 {
		d := rep.SelfSum - rep.Wall
		if d < 0 {
			d = -d
		}
		rep.SelfErr = d / rep.Wall
	}
	return rep
}

func (rep traceReport) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "trace %s: wall %.3fs, layer self-time sum %.3fs (error %.3f%%, tolerance %.1f%%), tracing overhead %+.2f%%\n",
		workload, rep.Wall, rep.SelfSum, rep.SelfErr*100, rep.Tolerance*100, rep.OverheadPct)
	layers := make([]string, 0, len(rep.Self))
	for l := range rep.Self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return rep.Self[layers[i]] > rep.Self[layers[j]] })
	fmt.Fprintf(w, "  %-12s %10s %7s\n", "layer", "self_s", "share")
	for _, l := range layers {
		share := 0.0
		if rep.SelfSum > 0 {
			share = rep.Self[l] / rep.SelfSum * 100
		}
		fmt.Fprintf(w, "  %-12s %10.4f %6.2f%%\n", l, rep.Self[l], share)
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it
// in chrome://tracing or Perfetto). Each process of the run is one
// trace "pid"; each operation's spans share a "tid".
func writeChromeTrace(path string, ops [][]span, rep traceReport) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for op, sp := range ops {
		for _, s := range sp {
			args := map[string]any{"op": op}
			if s.Parent >= 0 {
				args["parent"] = sp[s.Parent].Name
			}
			evs = append(evs, event{
				Name: s.Name, Cat: s.layer(), Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: s.Proc + 1, Tid: op, Args: args,
			})
		}
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"self_s": rep.Self, "wall_s": rep.Wall, "self_err": rep.SelfErr, "overhead_pct": rep.OverheadPct},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
