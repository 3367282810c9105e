package main

import (
	"fmt"
	"math"
	"time"
)

// serveWorkload is one traffic mix against the service.
type serveWorkload struct {
	name string
	mix  serveMix
	// rateCap sizes the generated request list (rateCap × clients ×
	// seconds). It is above the per-client rate this workload reaches on
	// a 2-core Xeon (≈60–75/s and ≈3/s), so the clock, not the list,
	// ends a run there; a much faster machine ends on the list instead.
	rateCap float64
	warm    int // warm-up requests, generated from warmUpSeed
	// guardPrefix is how many leading requests the work-count guard sums;
	// every run completes at least this many.
	guardPrefix int
	replays     int // unique requests the traced run replays layer by layer
	engine      bool
}

// heuristicWorkload: the paper platform with M in [20, 60], the solver
// alternating heuristic/repair, and about a fifth of the requests exact
// repeats of recent ones (cache hits).
var heuristicWorkload = serveWorkload{
	name: "serve-heuristic",
	mix: serveMix{minM: 20, maxM: 60, repeatShare: 0.2, query: func(i int) string {
		if i%2 == 0 {
			return "solver=heuristic"
		}
		return "solver=repair"
	}},
	rateCap:     100,
	warm:        48,
	guardPrefix: 200,
	replays:     100,
}

// portfolioWorkload: the ALNS portfolio on fixed rounds with the
// non-exact operators, M in [16, 24], every request unique (all misses).
var portfolioWorkload = serveWorkload{
	name: "serve-portfolio",
	mix: serveMix{minM: 16, maxM: 24, query: func(int) string {
		return "solver=portfolio&rounds=4&ops=heuristic,repair,improve,paths,anneal"
	}},
	rateCap:     8,
	warm:        4,
	guardPrefix: 40,
	replays:     20,
	engine:      true,
}

// serveSetups is how many times an untraced run sets the service up; the
// reported setup_s is their median.
const serveSetups = 3

// warmUpSeed generates the warm-up list. It is the same for every
// workload seed, so set-up does the same work in every run, and it is
// reserved, so warm-up instances are never measured ones (a measured
// request that the warm-up had cached would be a hit, not a miss).
const warmUpSeed = -0x5eed

func runServe(o options, w serveWorkload) (*outcome, error) {
	if o.seed == warmUpSeed {
		return nil, fmt.Errorf("seed %d is reserved for the warm-up list", o.seed)
	}
	n := int(math.Ceil(o.seconds*w.rateCap*float64(o.clients))) + w.guardPrefix
	reqs, err := generate(w.mix, o.seed, n)
	if err != nil {
		return nil, err
	}
	warm, err := generate(w.mix, warmUpSeed, w.warm)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceServe(o, w, warm, reqs)
	}
	sink := newEventSink(false)
	stopAfter := func(d float64) func() time.Time {
		return func() time.Time { return time.Now().Add(time.Duration(d * float64(time.Second))) }
	}
	p, setups, err := runPass(o.state, warm, reqs, o.clients, serveSetups, stopAfter(o.seconds), sink, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.res.Attempted = len(p.replies)
	out.res.Failed = p.failed
	out.res.Correct = p.failed == 0
	if len(p.failures) > 0 {
		out.note("failures", p.failures)
	}
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	out.note("setup_s_samples", setupS)
	out.set("setup_s", median(setupS), "s")

	lat := make([]float64, len(p.replies))
	for i, r := range p.replies {
		lat[i] = float64(r.latency()) / 1e6
	}
	out.latencies(lat)
	out.set("throughput_rps", float64(len(p.replies))/p.wall.Seconds(), "1/s")
	out.set("suite_s", median(blockTimes(p.replies, w.mix.blockSize())), "s")
	out.set("objective_mean", mean(p.energies), "J")
	out.set("alloc_mb", float64(p.allocB)/float64(len(p.replies))/1e6, "MB")
	if err := out.peakRSS(); err != nil {
		return nil, err
	}
	hits := 0
	for _, r := range p.replies {
		if r.cache == "hit" {
			hits++
		}
	}
	out.note("cache_hits", hits)
	out.note("hit_share", float64(hits)/float64(len(p.replies)))
	out.note("guard", serveGuard(p.replies, sink, w.guardPrefix))
	return out, nil
}

// blockTimes splits replies into consecutive groups of size requests and
// returns each complete group's wall time, first send to last reply.
func blockTimes(replies []*reply, size int) []float64 {
	var out []float64
	for b := 0; b+size <= len(replies); b += size {
		first, last := replies[b].sent, replies[b].done
		for _, r := range replies[b : b+size] {
			if r.sent.Before(first) {
				first = r.sent
			}
			if r.done.After(last) {
				last = r.done
			}
		}
		out = append(out, last.Sub(first).Seconds())
	}
	return out
}

// serveGuard sums the work counts of the first prefix requests. These
// are pure functions of the seed: a count that differs between two runs
// at one seed means some measured work ended on a clock.
func serveGuard(replies []*reply, sink *eventSink, prefix int) map[string]any {
	if prefix > len(replies) {
		prefix = len(replies)
	}
	var sum work
	hits := 0
	for _, r := range replies[:prefix] {
		sum.add(sink.work(r.id))
		if r.cache == "hit" {
			hits++
		}
	}
	per := func(v int) float64 { return float64(v) / float64(max(prefix, 1)) }
	return map[string]any{
		"requests":               prefix,
		"lp.pivots":              sum.LPPivots,
		"lp.dual_pivots":         sum.DualPivots,
		"milp.nodes":             sum.Nodes,
		"engine.applies_per_req": per(sum.Applies),
		"cache.hits":             hits,
		"obs.events_per_req":     per(sum.Events),
	}
}

// latencies sets the three latency metrics from per-operation times in
// milliseconds. Each tail percentile is lowered to the highest one with
// at least minTail samples beyond it (see tailPercentile); the
// percentile actually used is noted.
func (o *outcome) latencies(ms []float64) {
	s := sortedCopy(ms)
	o.set("latency_p50_ms", quantile(s, 0.5), "ms")
	for _, want := range []float64{90, 99} {
		used := tailPercentile(len(s), want)
		name := fmt.Sprintf("latency_p%.0f_ms", want)
		o.set(name, quantile(s, used/100), "ms")
		o.note(name+"_percentile", used)
	}
	o.note("latency_samples", len(s))
	q1, _, q3 := quartiles(ms)
	o.note("latency_q1_q3_ms", []float64{q1, q3})
}

func (o *outcome) peakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", mb, "MB")
	return nil
}
