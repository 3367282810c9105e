package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"nocdeploy/internal/spec"
	"nocdeploy/internal/taskgen"
)

// Instance shape shared by both serving workloads: the paper's platform
// (4×4 mesh, the six-level default V/F table) and layered task graphs
// with the generator's paper settings.
const (
	meshSide   = 4
	genWidth   = 4 // taskgen.Layered maxWidth
	genFanIn   = 3 // taskgen.Layered maxFanIn
	genAlpha   = 1.3
	repeatGap  = 8  // a repeat refers to a unique request at least this many uniques back …
	repeatSpan = 64 // … and at most this many, far inside the 256-entry solution cache
)

// serveMix describes the requests of one serving workload.
type serveMix struct {
	minM, maxM  int     // task counts, each drawn once per block of maxM-minM+1 uniques
	repeatShare float64 // share of requests that repeat an earlier request exactly
	// query gives the solver selection of a unique request by its index.
	query func(i int) string
}

// blockSize is the number of unique requests that cover every task count
// once; it is also the serving workloads' "suite".
func (m serveMix) blockSize() int { return m.maxM - m.minM + 1 }

// request is one generated POST /v1/solve.
type request struct {
	Index    int
	M        int
	Query    string
	RepeatOf int    // index of the request this one repeats exactly; -1 if unique
	Body     []byte // the spec.Instance JSON, all the program receives
}

// instance decodes the request's instance, for local validation and the
// traced replay. Keeping only the bytes keeps the generated list small
// next to the service's own memory.
func (r *request) instance() (spec.Instance, error) {
	var in spec.Instance
	err := json.Unmarshal(r.Body, &in)
	return in, err
}

// generate returns the first n requests of mix at seed. The list is a pure
// function of (mix, seed, n): task counts come in shuffled blocks, so
// every block of uniques covers the whole M range once and run-to-run
// work does not hinge on a few draws of M; graphs come from taskgen under
// per-instance seeds drawn from the same stream; a repeat copies an
// earlier unique request's body and query, so the service must answer it
// from its cache.
func generate(mix serveMix, seed int64, n int) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	var uniques []int // indices of unique requests, in order
	var block []int   // remaining task counts of the current block
	out := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		if len(uniques) > repeatGap && rng.Float64() < mix.repeatShare {
			lo := len(uniques) - repeatSpan
			if lo < 0 {
				lo = 0
			}
			orig := out[uniques[lo+rng.Intn(len(uniques)-repeatGap-lo)]]
			out = append(out, &request{Index: i, M: orig.M, Query: orig.Query, RepeatOf: orig.Index, Body: orig.Body})
			continue
		}
		if len(block) == 0 {
			block = rng.Perm(mix.blockSize())
		}
		m := mix.minM + block[0]
		block = block[1:]
		g, err := taskgen.Layered(taskgen.DefaultParams(m, rng.Int63()), genWidth, genFanIn)
		if err != nil {
			return nil, fmt.Errorf("generating request %d: %w", i, err)
		}
		inst := spec.Instance{
			Mesh:  spec.Mesh{W: meshSide, H: meshSide},
			Graph: spec.FromGraph(g),
			Alpha: genAlpha,
		}
		body, err := json.Marshal(inst)
		if err != nil {
			return nil, err
		}
		out = append(out, &request{Index: i, M: m, Query: mix.query(i), RepeatOf: -1, Body: body})
		uniques = append(uniques, i)
	}
	return out, nil
}
