package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"nocdeploy/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point (or rebuilt from the program's own obs events).
type span struct {
	Name       string
	Req        string // request ID (serving) or suite label; spans of one request share it
	Parent     int    // index of the enclosing span, -1 for a root
	Track      int    // Perfetto track: the client or worker the span ran on
	Start, End time.Time
}

// recorder keeps spans in memory; they are written out once, at the end
// of the traced run, so recording costs a slice append per span. Spans
// are recorded from one goroutine: serving spans are built after the
// traced pass from its replies and events.
type recorder struct {
	spans []span
}

// add records a finished span and returns its index for use as a parent.
func (r *recorder) add(name, req string, parent, track int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Track: track, Start: start, End: end})
	return len(r.spans) - 1
}

// begin opens a span now and returns its index; finish closes it.
// Opening before the callee runs keeps every parent ahead of its
// children in the slice.
func (r *recorder) begin(name, req string, parent, track int) int {
	return r.add(name, req, parent, track, time.Now(), time.Time{})
}

func (r *recorder) finish(i int) {
	r.spans[i].End = time.Now()
}

// time runs fn inside a span and returns the span's index.
func (r *recorder) time(name, req string, parent, track int, fn func()) int {
	i := r.begin(name, req, parent, track)
	fn()
	r.finish(i)
	return i
}

// durations lists every duration recorded under name, in record order.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

// writeChrome writes every span as Chrome trace_event JSON through the
// program's own obs.ChromeSink, which Perfetto and chrome://tracing open.
// Each span becomes a solve.start/solve.done pair on its track, emitted
// depth first (children in start order) under a clock that reads the
// span's own timestamps, so every track nests. The sink renders
// solve.done's Phase as the span's "outcome" argument; it carries the
// request ID, the parent span and the self time here.
func (r *recorder) writeChrome(path string) error {
	if len(r.spans) == 0 {
		return nil
	}
	children := make([][]int, len(r.spans))
	covered := make([]time.Duration, len(r.spans))
	var roots []int
	epoch := r.spans[0].Start
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
			covered[s.Parent] += s.End.Sub(s.Start)
		} else {
			roots = append(roots, i)
		}
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	now := epoch
	tr := obs.NewWithClock(func() time.Time { return now }, obs.NewChromeSink(f))
	var emit func(i int)
	emit = func(i int) {
		s := r.spans[i]
		now = s.Start
		tr.Emit(obs.Event{Kind: obs.SolveStart, Label: s.Name, Worker: s.Track})
		kids := children[i]
		sort.SliceStable(kids, func(a, b int) bool { return r.spans[kids[a]].Start.Before(r.spans[kids[b]].Start) })
		for _, k := range kids {
			emit(k)
		}
		parent := "-"
		if s.Parent >= 0 {
			parent = r.spans[s.Parent].Name
		}
		now = s.End
		tr.Emit(obs.Event{Kind: obs.SolveDone, Label: s.Name, Worker: s.Track,
			Phase: fmt.Sprintf("req=%s parent=%s self_us=%.1f", s.Req, parent, float64(s.End.Sub(s.Start)-covered[i])/1e3)})
	}
	for _, i := range roots {
		emit(i)
	}
	return tr.Close()
}

// writeSpans writes the traced run's spans and notes where.
func writeSpans(o options, workload string, rec *recorder, out *outcome) error {
	path, err := spansPath(o, workload)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.note("spans_file", path)
	out.note("spans", len(rec.spans))
	return nil
}

// spansPath is where a traced run writes its spans.
func spansPath(o options, workload string) (string, error) {
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(o.state, workload+"-seed"+strconv.FormatInt(o.seed, 10)+".trace.json"), nil
}
