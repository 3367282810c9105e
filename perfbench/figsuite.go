package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/milp"
	"nocdeploy/internal/obs"
)

const (
	// figSeed is cmd/experiments' default seed. The suite does not take
	// the workload seed: its wall time differs by up to 1.5× between
	// experiment seeds (seed 8 against seed 1, back to back), because a
	// few hard instances dominate it. That is variation of the input, not
	// of the program.
	figSeed = 1
	// figNodes bounds every exact solve by branch & bound nodes, so the
	// suite ends on a count; the hour-long TimeLimit never binds.
	figNodes = 50
)

func figConfig(tr *obs.Trace) exp.Config {
	return exp.Config{Seed: figSeed, Quick: true, TimeLimit: time.Hour, MaxNodes: figNodes, Parallel: 1, Trace: tr}
}

// suiteRun is one regeneration of all eight Fig. 2 tables.
type suiteRun struct {
	tables []*exp.Table
	wall   time.Duration
}

// runSuite regenerates the given figures (exp.Runners() for the whole
// suite) in order. With a recorder, each figure runs inside an
// "exp.fig2x" span under parent.
func runSuite(cfg exp.Config, runners []exp.Runner, rec *recorder, parent int) (*suiteRun, error) {
	s := &suiteRun{}
	start := time.Now()
	for _, r := range runners {
		var t *exp.Table
		var err error
		if rec != nil {
			rec.time("exp.fig"+r.Name, "suite", parent, 0, func() { t, err = r.Run(cfg) })
		} else {
			t, err = r.Run(cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", r.Name, err)
		}
		s.tables = append(s.tables, t)
	}
	s.wall = time.Since(start)
	return s, nil
}

// durationCell matches a measured wall-clock cell ("0.12s", ">1.2s",
// "0.04ms"), the only cells that may differ between two suites.
var durationCell = regexp.MustCompile(`^>?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?(ns|µs|us|ms|s)$`)

// canonical renders a suite's tables with runtime cells masked, after
// checking that every table has rows and no NaN or infinite cell.
func canonical(s *suiteRun) (string, error) {
	var b strings.Builder
	for _, t := range s.tables {
		if len(t.Rows) == 0 {
			return "", fmt.Errorf("%s: empty table", t.Title)
		}
		fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Join(t.Header, "|"))
		for _, row := range t.Rows {
			for i, c := range row {
				lc := strings.ToLower(c)
				if strings.Contains(lc, "nan") || strings.Contains(lc, "inf") {
					return "", fmt.Errorf("%s: non-finite cell %q", t.Title, c)
				}
				if durationCell.MatchString(c) {
					row = append([]string(nil), row...)
					row[i] = "<time>"
				}
			}
			fmt.Fprintf(&b, "%s\n", strings.Join(row, "|"))
		}
	}
	return b.String(), nil
}

// sameTables checks s and compares its canonical tables with ref, the
// warm-up suite's.
func sameTables(s *suiteRun, ref string) error {
	got, err := canonical(s)
	if err == nil && got != ref {
		err = fmt.Errorf("tables differ from the warm-up suite's")
	}
	return err
}

// fig2aEnergy is the mean of Fig. 2(a)'s multi-path energy column: the
// max-per-core energy (J) of the deployments the suite's heuristic
// returns at paper scale, over the α values where one was found.
func fig2aEnergy(s *suiteRun) float64 {
	t := s.tables[0]
	col := -1
	for i, h := range t.Header {
		if h == "E(multi)" {
			col = i
		}
	}
	var vals []float64
	for _, row := range t.Rows {
		if col < 0 || col >= len(row) {
			break
		}
		if v, err := strconv.ParseFloat(row[col], 64); err == nil && v > 0 {
			vals = append(vals, v)
		}
	}
	return mean(vals)
}

// countedSuite runs the figures under a trace that folds their obs
// events into the work-count guard.
func countedSuite(runners []exp.Runner) (*suiteRun, map[string]any, error) {
	m := obs.NewMetrics()
	cnt := newEventSink(false)
	tr := obs.New(obs.NewMetricsSink(m), cnt)
	s, err := runSuite(figConfig(tr), runners, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.Close(); err != nil {
		return nil, nil, err
	}
	c := m.Snapshot().Counters
	return s, map[string]any{
		"suites":                 1,
		"lp.pivots":              c["lp.iters"],
		"lp.dual_pivots":         c["lp.warmstart_dual_iters"],
		"milp.nodes":             c["bb.nodes"],
		"engine.applies_per_req": 0,
		"cache.hits":             0,
		"obs.events_per_req":     cnt.work("").Events,
	}, nil
}

func runFigsuite(o options) (*outcome, error) {
	// Set-up is the warm-up suite: it grows the lazily sized LP
	// workspaces and heaps, and it is counted for the guard.
	t0 := time.Now()
	warm, guard, err := countedSuite(exp.Runners())
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	ref, err := canonical(warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up suite: %w", err)
	}
	out := &outcome{}
	out.note("guard", guard)
	if o.trace {
		return out, traceFigsuite(o, out, ref)
	}

	var walls []float64
	var failures []string
	var mem runtimeMem
	mem.start()
	start := time.Now()
	for out.res.Attempted == 0 || time.Since(start).Seconds() < o.seconds {
		s, err := runSuite(figConfig(nil), exp.Runners(), nil, -1)
		out.res.Attempted++
		if err == nil {
			err = sameTables(s, ref)
		}
		if err != nil {
			out.res.Failed++
			failures = append(failures, err.Error())
			continue
		}
		walls = append(walls, s.wall.Seconds())
	}
	elapsed := time.Since(start)
	alloc := mem.allocated()
	if len(walls) == 0 {
		return nil, fmt.Errorf("every suite failed: %s", failures[0])
	}
	out.res.Correct = out.res.Failed == 0
	if len(failures) > 0 {
		out.note("failures", failures)
	}
	out.note("suite_s_samples", walls)
	out.set("setup_s", setup.Seconds(), "s")
	out.set("suite_s", median(walls), "s")
	out.set("throughput_rps", float64(out.res.Attempted)/elapsed.Seconds(), "1/s")
	lat := make([]float64, len(walls))
	for i, w := range walls {
		lat[i] = w * 1e3
	}
	out.latencies(lat)
	out.set("objective_mean", fig2aEnergy(warm), "J")
	out.set("alloc_mb", float64(alloc)/float64(out.res.Attempted)/1e6, "MB")
	return out, out.peakRSS()
}

// traceFigsuite is the traced run of figsuite: one untraced suite, one
// suite with a live trace and a span per figure, then direct calls into
// the exact-solver layers on instances of the suite's reduced-scale
// class.
func traceFigsuite(o options, out *outcome, ref string) error {
	plain, err := runSuite(figConfig(nil), exp.Runners(), nil, -1)
	if err != nil {
		return err
	}
	m := obs.NewMetrics()
	capture := newEventSink(true)
	tr := obs.New(obs.NewMetricsSink(m), capture)
	rec := &recorder{}
	root := rec.begin("exp.suite", "suite", -1, 0)
	traced, err := runSuite(figConfig(tr), exp.Runners(), rec, root)
	rec.finish(root)
	if err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	out.res.Attempted = 2
	var failures []string
	for _, s := range []*suiteRun{plain, traced} {
		if err := sameTables(s, ref); err != nil {
			out.res.Failed++
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		out.note("failures", failures)
	}
	addPoolSpans(rec, capture.events, root)

	for _, r := range exp.Runners() {
		d := rec.durations("exp.fig" + r.Name)
		out.set("exp.fig"+r.Name+"_s", d[0].Seconds(), "s")
	}
	snap := m.Snapshot()
	c := snap.Counters
	out.set("lp.pivots", float64(c["lp.iters"]), "count")
	out.set("lp.dual_pivots", float64(c["lp.warmstart_dual_iters"]), "count")
	out.set("lp.refactors", float64(c["lp.refactors"]), "count")
	out.set("milp.nodes", float64(c["bb.nodes"]), "count")
	warmOK := 0.0
	if c["lp.warmstarts"] > 0 {
		warmOK = float64(c["lp.warmstarts"]-c["lp.warmstart_fallbacks"]) / float64(c["lp.warmstarts"])
	}
	out.set("lp.warm_ok_ratio", warmOK, "1")
	out.set("runner.busy_ratio", snap.Hists["pool.task_seconds"].Sum/traced.wall.Seconds(), "1")
	out.set("obs.events_per_req", float64(capture.work("").Events), "count")
	out.set("trace.overhead_ratio", traced.wall.Seconds()/plain.wall.Seconds()-1, "1")

	ex, err := probeExact(rec)
	if err != nil {
		return err
	}
	out.set("core.formulation_ms", mean(ex.formulation), "ms")
	out.set("lp.root_ms", mean(ex.root), "ms")
	out.set("lp.root_pivots", mean(ex.rootPivots), "count")
	out.set("milp.solve_ms", mean(ex.solve), "ms")
	var usPerPivot []float64
	for i := range ex.root {
		usPerPivot = append(usPerPivot, ex.root[i]*1e3/ex.rootPivots[i])
	}
	out.set("lp.us_per_pivot", mean(usPerPivot), "us")
	out.note("probe_nodes", ex.nodes)
	out.setBypassed()
	out.res.Correct = out.res.Failed == 0
	return writeSpans(o, "figsuite", rec, out)
}

// addPoolSpans turns the traced suite's pool.task.start/done events into
// "runner.task" spans under the figure that ran them.
func addPoolSpans(rec *recorder, events []timedEvent, root int) {
	var figs []int
	for i, s := range rec.spans {
		if s.Parent == root {
			figs = append(figs, i)
		}
	}
	open := map[int]time.Time{}
	for _, te := range events {
		switch te.e.Kind {
		case obs.PoolTaskStart:
			open[te.e.Node] = te.at
		case obs.PoolTaskDone:
			start, ok := open[te.e.Node]
			if !ok {
				continue
			}
			delete(open, te.e.Node)
			for _, f := range figs {
				fs := rec.spans[f]
				if !start.Before(fs.Start) && !te.at.After(fs.End) {
					rec.add("runner.task", "suite", f, 0, start, te.at)
					break
				}
			}
		}
	}
}

// exactProbe collects the exact-solver layer calls.
type exactProbe struct {
	formulation, root, rootPivots, solve []float64
	nodes                                []int
}

// probeExact formulates and solves instances of the suite's exact class
// (2×2 mesh, M=4, L=3, the Fig. 2(b)/(h) size) directly:
// core.BuildFormulation, the root relaxation (milp.Model.Solve stopped
// after its first node, which is one lp.Solve; the model's LP is not
// exported) and a node-budgeted milp.Model.Solve.
func probeExact(rec *recorder) (*exactProbe, error) {
	ex := &exactProbe{}
	for k := 0; k < 3; k++ {
		sys, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 4, L: 3, Alpha: 1.2, Seed: figSeed + int64(k)})
		if err != nil {
			return nil, err
		}
		req := fmt.Sprintf("probe%d", k)
		root := rec.begin("probe", req, -1, 1)
		var f *core.Formulation
		i := rec.time("core.formulation", req, root, 1, func() { f = core.BuildFormulation(sys, core.Options{}) })
		ex.formulation = append(ex.formulation, ms(rec.spans[i].End.Sub(rec.spans[i].Start)))
		var res *milp.Result
		i = rec.time("lp.root", req, root, 1, func() { res, err = f.Model.Solve(milp.SolveOptions{MaxNodes: 1}) })
		if err != nil {
			return nil, err
		}
		if res.Iters == 0 {
			return nil, fmt.Errorf("probe %d: root relaxation took no pivots", k)
		}
		ex.root = append(ex.root, ms(rec.spans[i].End.Sub(rec.spans[i].Start)))
		ex.rootPivots = append(ex.rootPivots, float64(res.Iters))
		i = rec.time("milp.solve", req, root, 1, func() { res, err = f.Model.Solve(milp.SolveOptions{MaxNodes: figNodes, RelGap: 0.01}) })
		if err != nil {
			return nil, err
		}
		if res.X != nil && math.IsNaN(res.Obj) {
			return nil, fmt.Errorf("probe %d: NaN objective", k)
		}
		ex.solve = append(ex.solve, ms(rec.spans[i].End.Sub(rec.spans[i].Start)))
		ex.nodes = append(ex.nodes, res.Nodes)
		rec.finish(root)
	}
	return ex, nil
}
