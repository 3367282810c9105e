// Command benchjson converts `go test -bench` output into a stable JSON
// document, so CI can archive benchmark results as machine-readable
// artifacts (BENCH_PR2.json at the repo root) and the perf trajectory can
// be diffed across commits.
//
// Usage:
//
//	go test -bench=. -benchmem -count=3 . | go run ./cmd/benchjson -out BENCH_PR2.json
//
// Repeated runs of the same benchmark (-count > 1) are averaged; the
// sample count is recorded. Output keys are sorted so the JSON diffs
// cleanly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches the head of one result line, e.g.
//
//	BenchmarkFig2a-8   3   123456789 ns/op   95150 lp_pivots/op   4567 B/op   89 allocs/op
//
// capturing the name, the iteration count and the rest of the line, which
// is a sequence of "value unit" pairs: ns/op first, then any metrics the
// benchmark reports with b.ReportMetric, then B/op and allocs/op under
// -benchmem. The -8 GOMAXPROCS suffix is stripped from the recorded name.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// Entry is the aggregated result of one benchmark.
type Entry struct {
	Runs        int     `json:"runs"`          // samples averaged (the -count)
	Iterations  int64   `json:"iterations"`    // total b.N across samples
	NsPerOp     float64 `json:"ns_per_op"`     // mean
	BytesPerOp  float64 `json:"b_per_op"`      // mean; -1 without -benchmem
	AllocsPerOp float64 `json:"allocs_per_op"` // mean; -1 without -benchmem
	// Metrics holds the means of the other reported units (b.ReportMetric
	// pairs such as lp_pivots/op), keyed by unit, over the samples that
	// reported them.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Package    string           `json:"pkg,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Parse aggregates bench output into a report.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: map[string]Entry{}}
	type acc struct {
		runs            int
		iters           int64
		ns, bytes, alls float64
		hasMem          bool
		metrics         map[string]float64
		metricRuns      map[string]int
	}
	accs := map[string]*acc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		}
		mm := benchLine.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		vals, ok, err := parsePairs(mm[3])
		if err != nil {
			return nil, fmt.Errorf("benchjson: %v in %q", err, line)
		}
		if !ok {
			continue // not a result line: no ns/op pair leads it
		}
		name := mm[1]
		iters, err := strconv.ParseInt(mm[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
		}
		a := accs[name]
		if a == nil {
			a = &acc{metrics: map[string]float64{}, metricRuns: map[string]int{}}
			accs[name] = a
		}
		a.runs++
		a.iters += iters
		for _, p := range vals {
			switch p.unit {
			case "ns/op":
				a.ns += p.val
			case "B/op":
				a.bytes += p.val
				a.hasMem = true
			case "allocs/op":
				a.alls += p.val
			default:
				a.metrics[p.unit] += p.val
				a.metricRuns[p.unit]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, a := range accs {
		e := Entry{
			Runs:        a.runs,
			Iterations:  a.iters,
			NsPerOp:     a.ns / float64(a.runs),
			BytesPerOp:  -1,
			AllocsPerOp: -1,
		}
		if a.hasMem {
			e.BytesPerOp = a.bytes / float64(a.runs)
			e.AllocsPerOp = a.alls / float64(a.runs)
		}
		for unit, sum := range a.metrics {
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = sum / float64(a.metricRuns[unit])
		}
		rep.Benchmarks[name] = e
	}
	return rep, nil
}

// pair is one "value unit" field of a result line.
type pair struct {
	val  float64
	unit string
}

// parsePairs splits the fields after the iteration count into value/unit
// pairs. ok is false when the fields do not open with an ns/op pair, as
// on a benchmark's log output; a malformed value after that is an error.
func parsePairs(rest string) (pairs []pair, ok bool, err error) {
	f := strings.Fields(rest)
	if len(f) < 2 || f[1] != "ns/op" {
		return nil, false, nil
	}
	for i := 0; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, false, fmt.Errorf("bad %s value %q", f[i+1], f[i])
		}
		pairs = append(pairs, pair{val: v, unit: f[i+1]})
	}
	return pairs, true, nil
}

// Render emits the report as indented JSON with a trailing newline.
// Map keys are sorted by encoding/json, so output is deterministic.
func Render(rep *Report) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		in  = flag.String("in", "-", "bench output to read (- for stdin)")
		out = flag.String("out", "-", "JSON file to write (- for stdout)")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close() //lint:allow errdrop — file opened read-only; nothing to flush
		src = f
	}
	rep, err := Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines found in input")
	}
	buf, err := Render(rep)
	if err != nil {
		log.Fatal(err)
	}
	if *out == "-" {
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	sorted := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	log.Printf("wrote %d benchmarks to %s (%s)", len(sorted), *out, strings.Join(sorted, ", "))
}
