package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/noc"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/spec"
)

// traceServe is the traced run of a serving workload. It drives the same
// request list twice, each time for half the run on a fresh service:
// untraced, then with the benchmark's sink keeping every program event.
// Their throughput ratio is the tracing overhead. The traced pass's
// replies, serving stages (req.stage events) and heuristic phases
// (heur.phase events) become spans; then the first unique requests are
// replayed one layer at a time through the public functions the service
// calls (spec, noc, core, engine), each call inside a span.
func traceServe(o options, w serveWorkload, warm, reqs []*request) (*outcome, error) {
	half := time.Duration(o.seconds / 2 * float64(time.Second))
	stop := func() time.Time { return time.Now().Add(half) }
	pa, _, err := runPass(o.state, warm, reqs, o.clients, 1, stop, newEventSink(false), false)
	if err != nil {
		return nil, err
	}
	sink := newEventSink(true)
	pb, _, err := runPass(o.state, warm, reqs, o.clients, 1, stop, sink, true)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.res.Attempted = len(pa.replies) + len(pb.replies)
	out.res.Failed = pa.failed + pb.failed
	failures := append(pa.failures, pb.failures...)

	rec := &recorder{}
	stages := stageEvents(sink.events)
	var decode, cacheStage, queue, httpMS []float64
	hits := 0
	for _, r := range pb.replies {
		root := rec.add("client.request", r.id, -1, r.client, r.sent, r.done)
		if r.cache == "hit" {
			hits++
		}
		// Each req.stage event arrives when its stage ends and carries the
		// stage's duration. Queue and solve are reported together once the
		// solve is done, so the wait ends where the solve began.
		iv := map[string][2]time.Time{}
		dur := map[string]time.Duration{}
		for _, te := range stages[r.id] {
			d := time.Duration(te.e.Dur * float64(time.Second))
			dur[te.e.Phase] = d
			iv[te.e.Phase] = [2]time.Time{te.at.Add(-d), te.at}
		}
		if s, ok := iv["solve"]; ok {
			iv["queue"] = [2]time.Time{s[0].Add(-dur["queue"]), s[0]}
		}
		prev := r.sent
		for _, st := range []struct{ stage, span string }{
			{"admission", "service.admission"}, {"cache", "service.cache"},
			{"queue", "runner.queue"}, {"solve", "service.solve"},
		} {
			v, ok := iv[st.stage]
			if !ok {
				continue
			}
			// Stages run one after another inside the round trip; clamping
			// keeps the spans nested despite clock jitter.
			start := clamp(v[0], prev, r.done)
			prev = clamp(v[1], start, r.done)
			rec.add(st.span, r.id, root, r.client, start, prev)
		}
		decode = append(decode, ms(dur["admission"]))
		cacheStage = append(cacheStage, ms(dur["cache"]))
		if d, ok := dur["queue"]; ok {
			queue = append(queue, ms(d))
		}
		if d, ok := dur["solve"]; ok && r.cache == "miss" {
			httpMS = append(httpMS, ms(r.latency()-d))
		}
	}
	addPhaseSpans(rec, sink.events, pb.replies)

	var appendUS []float64
	inPass := map[string]bool{}
	var evTotal int
	for _, r := range pb.replies {
		inPass[r.id] = true
		evTotal += sink.work(r.id).Events
	}
	for _, te := range sink.events {
		if te.e.Kind == obs.ArchiveRecord && inPass[te.e.Req] {
			appendUS = append(appendUS, te.e.Dur*1e6)
		}
	}

	nb := float64(len(pb.replies))
	out.set("service.http_ms", mean(httpMS), "ms")
	out.set("service.decode_ms", mean(decode), "ms")
	out.set("cache.stage_us", mean(cacheStage)*1e3, "us")
	out.set("cache.hits", float64(hits), "count")
	out.set("cache.hit_ratio", metricsHitRatio(pb.snap), "1")
	qs := sortedCopy(queue)
	q99 := tailPercentile(len(qs), 99)
	out.set("runner.queue_wait_ms_p50", quantile(qs, 0.5), "ms")
	out.set("runner.queue_wait_ms_p99", quantile(qs, q99/100), "ms")
	out.note("runner.queue_wait_p99_percentile", q99)
	out.set("archive.append_us", mean(appendUS), "us")
	out.set("archive.dropped", float64(pb.stats.Dropped), "count")
	out.set("obs.events_per_req", float64(evTotal)/nb, "count")
	out.set("service.alloc_kb_per_req", float64(pa.allocB)/float64(len(pa.replies))/1e3, "KB")
	thrA := float64(len(pa.replies)) / pa.wall.Seconds()
	thrB := nb / pb.wall.Seconds()
	out.set("trace.overhead_ratio", thrA/thrB-1, "1")
	out.note("throughput_untraced_rps", thrA)
	out.note("throughput_traced_rps", thrB)

	rp := replay(rec, o.clients, w, reqs, pb.replies)
	out.res.Attempted += rp.attempted
	out.res.Failed += rp.failed
	if failures = append(failures, rp.failures...); len(failures) > 0 {
		out.note("failures", failures)
	}
	meanMS := func(name string) float64 {
		var v []float64
		for _, d := range rec.durations(name) {
			v = append(v, ms(d))
		}
		return mean(v)
	}
	out.set("spec.hash_us", meanMS("spec.hash")*1e3, "us")
	out.set("spec.build_ms", meanMS("spec.build"), "ms")
	out.set("noc.mesh_ms", meanMS("noc.mesh"), "ms")
	out.set("core.heuristic_ms", meanMS("core.heuristic"), "ms")
	out.set("core.repair_ms", meanMS("core.repair"), "ms")
	out.set("core.metrics_ms", meanMS("core.metrics"), "ms")
	for _, p := range []string{"P1", "P2", "P3"} {
		out.set("core."+strings.ToLower(p)+"_ms", mean(rp.phases[p]), "ms")
	}
	if w.engine {
		out.set("engine.solve_ms", mean(rp.engineSolve), "ms")
		out.set("engine.overhead_ms", mean(rp.engineOverhead), "ms")
		out.set("engine.applies_per_req", float64(rp.applies)/float64(max(len(rp.engineSolve), 1)), "count")
		out.set("engine.improved_ratio", float64(rp.improved)/float64(max(rp.applies, 1)), "1")
		for _, op := range opNames {
			out.set("engine.op."+op+"_ms", mean(rp.opMS[op]), "ms")
		}
	}
	out.note("replayed", rp.attempted)
	out.setBypassed()
	if err := writeSpans(o, w.name, rec, out); err != nil {
		return nil, err
	}
	out.res.Correct = out.res.Failed == 0
	return out, nil
}

// opNames are the portfolio operators serve-portfolio selects.
var opNames = []string{"heuristic", "repair", "improve", "paths", "anneal"}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func clamp(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// metricsHitRatio reads the cached share of solve requests from the
// service's own outcome counters (/metrics, measured-loop delta).
func metricsHitRatio(s obs.Snapshot) float64 {
	var all int64
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "requests{") {
			all += v
		}
	}
	if all == 0 {
		return 0
	}
	return float64(s.Counters[obs.Key("requests", "outcome", "cached")]) / float64(all)
}

// addPhaseSpans turns each request's heur.phase.start/end events into
// spans under its service.solve span.
func addPhaseSpans(rec *recorder, events []timedEvent, replies []*reply) {
	type key struct{ req, phase string }
	client := map[string]int{}
	for _, r := range replies {
		client[r.id] = r.client
	}
	solveSpan := map[string]int{}
	for i, s := range rec.spans {
		if s.Name == "service.solve" {
			solveSpan[s.Req] = i
		}
	}
	open := map[key]time.Time{}
	for _, te := range events {
		p, ok := solveSpan[te.e.Req]
		if !ok {
			continue
		}
		k := key{te.e.Req, te.e.Phase}
		switch te.e.Kind {
		case obs.HeurPhaseStart:
			open[k] = te.at
		case obs.HeurPhaseEnd:
			if start, ok := open[k]; ok {
				par := rec.spans[p]
				rec.add("core."+te.e.Phase, te.e.Req, p, client[te.e.Req], clamp(start, par.Start, par.End), clamp(te.at, par.Start, par.End))
				delete(open, k)
			}
		}
	}
}

// replayed collects what the layer-by-layer replay measured.
type replayed struct {
	attempted, failed int
	failures          []string
	phases            map[string][]float64 // SolveInfo.Phases of the heuristic, ms
	engineSolve       []float64            // ms
	engineOverhead    []float64            // ms: solve minus the operators' own time
	opMS              map[string][]float64
	applies, improved int
}

// replay calls, for the first w.replays unique requests of the traced
// pass, each public function the service's solve path goes through, on
// the request's own instance, each inside a span under a "replay" root.
// The solver the request named must reproduce the service's deployment
// objective exactly (solves are deterministic); a mismatch is a failure.
func replay(rec *recorder, track int, w serveWorkload, reqs []*request, replies []*reply) *replayed {
	rp := &replayed{phases: map[string][]float64{}, opMS: map[string][]float64{}}
	ctx := context.Background()
	for i, rep := range replies {
		r := reqs[i]
		if r.RepeatOf >= 0 || rep.status != http.StatusOK {
			continue
		}
		if rp.attempted == w.replays {
			break
		}
		rp.attempted++
		if err := replayOne(ctx, rec, track, w, r, rep, rp); err != nil {
			rp.failed++
			if len(rp.failures) < 5 {
				rp.failures = append(rp.failures, fmt.Sprintf("replay of request %d: %v", i, err))
			}
		}
	}
	return rp
}

func replayOne(ctx context.Context, rec *recorder, track int, w serveWorkload, r *request, rep *reply, rp *replayed) error {
	id := rep.id
	root := rec.begin("replay", id, -1, track)
	defer rec.finish(root)
	inst, err := r.instance()
	if err != nil {
		return err
	}
	rec.time("spec.hash", id, root, track, func() { _, err = inst.CanonicalHash() })
	if err != nil {
		return err
	}
	var sys *core.System
	rec.time("spec.build", id, root, track, func() { sys, err = inst.Build() })
	if err != nil {
		return err
	}
	// The mesh spec.Build constructs for this instance.
	rec.time("noc.mesh", id, root, track, func() {
		_, err = noc.NewMesh(noc.Config{W: inst.Mesh.W, H: inst.Mesh.H, Link: noc.DefaultLinkParams(), Jitter: 0.25, Seed: 1})
	})
	if err != nil {
		return err
	}
	var dep spec.Deployment
	if err := json.Unmarshal(rep.body, &dep); err != nil {
		return err
	}
	rec.time("core.metrics", id, root, track, func() { _, err = core.ComputeMetrics(sys, dep.ToDeployment()) })
	if err != nil {
		return err
	}

	var info *core.SolveInfo
	h := rec.time("core.heuristic", id, root, track, func() { _, info, err = core.HeuristicCtx(ctx, sys, core.Options{}, 1) })
	if err != nil {
		return err
	}
	// SolveInfo.Phases gives durations only; the phases run back to back,
	// so their spans are laid out from the call's start.
	at := rec.spans[h].Start
	for _, ph := range info.Phases {
		rp.phases[ph.Name] = append(rp.phases[ph.Name], ms(ph.D))
		rec.add("core."+ph.Name, id, h, track, at, at.Add(ph.D))
		at = at.Add(ph.D)
	}
	want := map[string]float64{"solver=heuristic": info.Objective}
	rec.time("core.repair", id, root, track, func() { _, info, err = core.HeuristicWithRepairCtx(ctx, sys, core.Options{}, 1, 0) })
	if err != nil {
		return err
	}
	want["solver=repair"] = info.Objective
	if w.engine {
		obj, err := replayEngine(ctx, rec, track, root, id, sys, rp)
		if err != nil {
			return err
		}
		want[r.Query] = obj
	}
	if got, ok := want[r.Query]; ok && math.Abs(got-dep.Objective) > 1e-12*math.Max(1, math.Abs(got)) {
		return fmt.Errorf("%s: local objective %g, service returned %g", r.Query, got, dep.Objective)
	}
	return nil
}

// replayEngine runs the portfolio with the options the service builds
// for a serve-portfolio request and lays its operator applications out
// as spans: each round's batch runs serially on the engine's one worker
// and is reduced (engine.op.apply events) right after, so a round's
// operators occupy the time just before its first apply event.
func replayEngine(ctx context.Context, rec *recorder, track, root int, id string, sys *core.System, rp *replayed) (float64, error) {
	eo := engine.Options{Seed: 1, Rounds: 4, Workers: 1}
	ops, err := engine.BuildOperators(opNames, eo)
	if err != nil {
		return 0, err
	}
	eo.Operators = ops
	capture := newEventSink(true)
	tr := obs.New(capture)
	var info *core.SolveInfo
	s := rec.time("engine.solve", id, root, track, func() { _, info, err = engine.SolveCtx(ctx, sys, core.Options{Trace: tr}, eo) })
	if err != nil {
		return 0, err
	}
	if err := tr.Close(); err != nil {
		return 0, err
	}
	solve := rec.spans[s].End.Sub(rec.spans[s].Start)
	var opTotal time.Duration
	var round []timedEvent
	flush := func() {
		var sum time.Duration
		for _, te := range round {
			sum += time.Duration(te.e.Dur * float64(time.Second))
		}
		if len(round) == 0 {
			return
		}
		at := round[0].at.Add(-sum)
		for _, te := range round {
			d := time.Duration(te.e.Dur * float64(time.Second))
			rec.add("engine.op."+te.e.Label, id, s, track, at, at.Add(d))
			at = at.Add(d)
		}
		round = round[:0]
	}
	for _, te := range capture.events {
		switch te.e.Kind {
		case obs.EngineOpApply:
			d := time.Duration(te.e.Dur * float64(time.Second))
			opTotal += d
			rp.opMS[te.e.Label] = append(rp.opMS[te.e.Label], ms(d))
			rp.applies++
			if te.e.Phase == "improved" {
				rp.improved++
			}
			round = append(round, te)
		case obs.EngineIter:
			flush()
		}
	}
	flush()
	rp.engineSolve = append(rp.engineSolve, ms(solve))
	rp.engineOverhead = append(rp.engineOverhead, ms(solve-opTotal))
	return info.Objective, nil
}

// stageEvents groups the traced pass's req.stage events by request ID.
func stageEvents(events []timedEvent) map[string][]timedEvent {
	out := map[string][]timedEvent{}
	for _, te := range events {
		if te.e.Kind == obs.ReqStage {
			out[te.e.Req] = append(out[te.e.Req], te)
		}
	}
	return out
}
