// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed against the program's public entry points,
// checks every output, and prints the workload's metrics as one JSON
// object on the last line of standard output:
//
//	perfbench -workload serve-heuristic -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run; with
// -trace 1 it prints the per-layer metrics of a traced run and writes its
// spans (Chrome trace_event JSON) under -state. The workloads, metrics and
// noise rules are described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main: the result plus an
// informational record printed on the line before it.
type outcome struct {
	res  result
	info map[string]any
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.res.Metrics == nil {
		o.res.Metrics = map[string]metric{}
	}
	o.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(key string, v any) {
	if o.info == nil {
		o.info = map[string]any{}
	}
	o.info[key] = v
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	state   string // directory for archives and spans files
	clients int
}

var workloads = map[string]func(options) (*outcome, error){
	"figsuite":        runFigsuite,
	"serve-heuristic": func(o options) (*outcome, error) { return runServe(o, heuristicWorkload) },
	"serve-portfolio": func(o options) (*outcome, error) { return runServe(o, portfolioWorkload) },
}

func main() {
	name := flag.String("workload", "", "workload: figsuite, serve-heuristic or serve-portfolio")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured time of one run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	state := flag.String("state", ".bench_build/perfbench", "directory for archives and spans files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, state: *state, clients: runtime.NumCPU()}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := checkMetrics(out, opts.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out.note("workload", *name)
	out.note("seed", *seed)
	out.note("seconds", *seconds)
	out.note("trace", *trace)
	out.note("nproc", runtime.NumCPU())
	out.note("gomaxprocs", runtime.GOMAXPROCS(0))
	out.note("go", runtime.Version())
	out.note("clients", opts.clients)
	out.note("failed_ratio", float64(out.res.Failed)/float64(max(out.res.Attempted, 1)))
	if err := emit(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !out.res.Correct || out.res.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the info line and then the result line.
func emit(o *outcome) error {
	info, err := json.Marshal(map[string]any{"info": o.info})
	if err != nil {
		return err
	}
	res, err := json.Marshal(o.res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", info, res)
	return err
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runtimeMem measures bytes allocated between start and allocated.
type runtimeMem struct{ before uint64 }

func (m *runtimeMem) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.before = ms.TotalAlloc
}

func (m *runtimeMem) allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.before
}
