package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: nocdeploy
cpu: Intel(R) Xeon(R) CPU
BenchmarkFig2a-8   	       2	 500000000 ns/op	 1000 B/op	      10 allocs/op
BenchmarkFig2a-8   	       2	 700000000 ns/op	 3000 B/op	      30 allocs/op
BenchmarkHeuristicM20-8   	     100	  10000000 ns/op
PASS
ok  	nocdeploy	12.3s
`

func TestParseAveragesAndStripsSuffix(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Package != "nocdeploy" {
		t.Errorf("header = %q/%q/%q", rep.Goos, rep.Goarch, rep.Package)
	}
	a, ok := rep.Benchmarks["BenchmarkFig2a"]
	if !ok {
		t.Fatalf("Fig2a missing (GOMAXPROCS suffix not stripped?): %v", rep.Benchmarks)
	}
	if a.Runs != 2 || a.Iterations != 4 {
		t.Errorf("Fig2a runs/iters = %d/%d, want 2/4", a.Runs, a.Iterations)
	}
	if math.Abs(a.NsPerOp-6e8) > 1 || math.Abs(a.BytesPerOp-2000) > 1e-9 || math.Abs(a.AllocsPerOp-20) > 1e-9 {
		t.Errorf("Fig2a averages = %v", a)
	}
	h := rep.Benchmarks["BenchmarkHeuristicM20"]
	if h.Runs != 1 || h.BytesPerOp != -1 || h.AllocsPerOp != -1 {
		t.Errorf("no-benchmem entry = %v, want runs 1 and -1 memory fields", h)
	}
}

func TestRenderDeterministicJSON(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out1, err := Render(rep)
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := Render(rep)
	if string(out1) != string(out2) {
		t.Error("Render is not deterministic")
	}
	var back Report
	if err := json.Unmarshal(out1, &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(back.Benchmarks) != 2 {
		t.Errorf("round-trip lost benchmarks: %v", back.Benchmarks)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	rep, err := Parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed phantom benchmarks: %v", rep.Benchmarks)
	}
}

// Metrics reported with b.ReportMetric sit between ns/op and B/op; the
// memory columns after them must still be read, and the custom pairs
// recorded under their units.
func TestParseReportMetricPairs(t *testing.T) {
	const in = `BenchmarkFigSuiteSerial-2   	       1	6300000000 ns/op	      4158 bb_nodes/op	     77305 lp_dual_pivots/op	     95150 lp_pivots/op	400000000 B/op	 2400000 allocs/op
BenchmarkFigSuiteSerial-2   	       1	6500000000 ns/op	      4158 bb_nodes/op	     77305 lp_dual_pivots/op	     95150 lp_pivots/op	420000000 B/op	 2600000 allocs/op
BenchmarkRatio-2   	      10	       120 ns/op	         0.5 hit_ratio
`
	rep, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Benchmarks["BenchmarkFigSuiteSerial"]
	if e.Runs != 2 || e.NsPerOp != 6.4e9 || e.BytesPerOp != 4.1e8 || e.AllocsPerOp != 2.5e6 {
		t.Errorf("entry = %+v, want 2 runs, 6.4e9 ns/op, 4.1e8 B/op, 2.5e6 allocs/op", e)
	}
	want := map[string]float64{"bb_nodes/op": 4158, "lp_dual_pivots/op": 77305, "lp_pivots/op": 95150}
	if !reflect.DeepEqual(e.Metrics, want) {
		t.Errorf("metrics = %v, want %v", e.Metrics, want)
	}
	r := rep.Benchmarks["BenchmarkRatio"]
	if r.BytesPerOp != -1 || r.Metrics["hit_ratio"] != 0.5 {
		t.Errorf("no-benchmem entry with a metric = %+v", r)
	}
}

func TestParseRejectsMalformedPair(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-2 1 100 ns/op abc lp_pivots/op\n")); err == nil {
		t.Error("malformed metric value parsed without error")
	}
}
