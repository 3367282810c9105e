package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"nocdeploy/internal/exp"
)

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []serveWorkload{heuristicWorkload, portfolioWorkload} {
		a, err := generate(w.mix, 7, 120)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w.mix, 7, 120)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w.mix, 8, 120)
		if err != nil {
			t.Fatal(err)
		}
		same, differ := true, false
		for i := range a {
			same = same && bytes.Equal(a[i].Body, b[i].Body) && a[i].Query == b[i].Query && a[i].RepeatOf == b[i].RepeatOf
			differ = differ || !bytes.Equal(a[i].Body, c[i].Body)
		}
		if !same {
			t.Errorf("%s: two lists at seed 7 differ", w.name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 give the same list", w.name)
		}
	}
}

// Task counts come in shuffled blocks covering the whole range once.
func TestGenerateStratifiesTaskCounts(t *testing.T) {
	mix := heuristicWorkload.mix
	reqs, err := generate(mix, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	var uniques []*request
	for _, r := range reqs {
		if r.RepeatOf < 0 {
			uniques = append(uniques, r)
		}
	}
	n := mix.blockSize()
	for b := 0; b+n <= len(uniques); b += n {
		seen := map[int]bool{}
		for _, r := range uniques[b : b+n] {
			if r.M < mix.minM || r.M > mix.maxM || seen[r.M] {
				t.Fatalf("block %d: task count %d repeated or out of range", b/n, r.M)
			}
			seen[r.M] = true
		}
	}
}

// Every repeat copies an earlier unique request that lies within the
// cache's reach, and about the configured share of requests repeat.
func TestRepeatsReferenceEarlierUniques(t *testing.T) {
	reqs, err := generate(heuristicWorkload.mix, 11, 2000)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for i, r := range reqs {
		if r.RepeatOf < 0 {
			continue
		}
		repeats++
		orig := reqs[r.RepeatOf]
		if r.RepeatOf >= i || orig.RepeatOf >= 0 {
			t.Fatalf("request %d repeats %d, which is not an earlier unique request", i, r.RepeatOf)
		}
		if !bytes.Equal(r.Body, orig.Body) || r.Query != orig.Query {
			t.Fatalf("request %d is not an exact copy of request %d", i, r.RepeatOf)
		}
		back := 0
		for _, q := range reqs[r.RepeatOf+1 : i] {
			if q.RepeatOf < 0 {
				back++
			}
		}
		if back+1 < repeatGap || back+1 > repeatSpan {
			t.Fatalf("request %d repeats a unique request %d uniques back", i, back+1)
		}
	}
	if share := float64(repeats) / float64(len(reqs)); math.Abs(share-0.2) > 0.03 {
		t.Errorf("repeat share %.3f, want about 0.2", share)
	}
	if p, _ := generate(portfolioWorkload.mix, 11, 300); countRepeats(p) != 0 {
		t.Errorf("serve-portfolio generated repeats")
	}
}

func countRepeats(reqs []*request) int {
	n := 0
	for _, r := range reqs {
		if r.RepeatOf >= 0 {
			n++
		}
	}
	return n
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, used float64
	}{
		{2000, 99, 99},
		{1000, 99, 99},
		{999, 99, 98},
		{500, 99, 98},
		{100, 90, 90},
		{99, 90, 89},
		{25, 90, 60},
		{5, 99, 50},
	} {
		used := tailPercentile(tc.n, tc.want)
		if used != tc.used {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, used, tc.used)
		}
		if used > 50 && float64(tc.n)*(100-used)/100 < minTail-1e-9 {
			t.Errorf("n=%d: percentile %v leaves fewer than %d samples beyond it", tc.n, used, minTail)
		}
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2.5, 0.5, 9, 7, 3.25}, [3]float64{1.5, 3.25, 8}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if q := quantile([]float64{0, 10}, 0.9); q != 9 {
		t.Errorf("quantile = %v, want 9", q)
	}
}

// The work counts a run prints repeat exactly between two runs at one
// seed: solves end on counts, and every repeat is a cache hit.
func TestWorkCountsRepeatAtOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the service and runs figures")
	}
	state := t.TempDir()
	for _, tc := range []struct {
		w serveWorkload
		n int
	}{{heuristicWorkload, 120}, {portfolioWorkload, 6}} {
		var guards []map[string]any
		for run := 0; run < 2; run++ {
			reqs, err := generate(tc.w.mix, 5, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := generate(tc.w.mix, warmUpSeed, tc.w.warm)
			if err != nil {
				t.Fatal(err)
			}
			sink := newEventSink(false)
			p, _, err := runPass(state, warm, reqs, 2, 1, func() time.Time { return time.Time{} }, sink, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed > 0 {
				t.Fatalf("%s: %d failed replies: %v", tc.w.name, p.failed, p.failures)
			}
			if hits := countHits(p.replies); hits != countRepeats(reqs) {
				t.Fatalf("%s: %d cache hits for %d repeats", tc.w.name, hits, countRepeats(reqs))
			}
			guards = append(guards, serveGuard(p.replies, sink, tc.n))
		}
		if !reflect.DeepEqual(guards[0], guards[1]) {
			t.Errorf("%s: work counts differ between runs:\n%v\n%v", tc.w.name, guards[0], guards[1])
		}
	}

	fig := []exp.Runner{exp.Runners()[7]} // Fig. 2(h): exact solves under the node budget
	_, a, err := countedSuite(fig)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := countedSuite(fig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || a["lp.pivots"].(int64) == 0 || a["milp.nodes"].(int64) == 0 {
		t.Errorf("figure work counts differ or are empty:\n%v\n%v", a, b)
	}
}

func countHits(replies []*reply) int {
	n := 0
	for _, r := range replies {
		if r.cache == "hit" {
			n++
		}
	}
	return n
}

// The spans file nests on every track and gives each span its self
// time: its duration minus the time its children cover.
func TestChromeSpansNestWithSelfTimes(t *testing.T) {
	rec := &recorder{}
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add("root", "r1", -1, 0, at(0), at(10))
	rec.add("a", "r1", root, 0, at(1), at(4))
	b := rec.add("b", "r1", root, 0, at(4), at(9))
	rec.add("c", "r1", b, 0, at(5), at(5)) // zero length, on its parent's edge
	rec.add("d", "r1", b, 0, at(5), at(6))

	path := t.TempDir() + "/spans.json"
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Args struct {
			Outcome string `json:"outcome"`
		} `json:"args"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("spans file is not a JSON array: %v", err)
	}
	var stack []string
	self := map[string]string{}
	for _, e := range evs {
		switch e.Ph {
		case "B":
			stack = append(stack, e.Name)
		case "E":
			if len(stack) == 0 || stack[len(stack)-1] != e.Name {
				t.Fatalf("span %s closes out of order (open: %v)", e.Name, stack)
			}
			stack = stack[:len(stack)-1]
			self[e.Name] = e.Args.Outcome
		}
	}
	if len(stack) != 0 {
		t.Errorf("unclosed spans %v", stack)
	}
	want := map[string]string{
		"root": "req=r1 parent=- self_us=2000.0",
		"a":    "req=r1 parent=root self_us=3000.0",
		"b":    "req=r1 parent=root self_us=4000.0",
		"c":    "req=r1 parent=b self_us=0.0",
		"d":    "req=r1 parent=b self_us=1000.0",
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("span arguments %v, want %v", self, want)
	}
}

// The metric lists the runs print are the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
}
