package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/core"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/service"
	"nocdeploy/internal/spec"
)

// eventSink is a trace sink attached to the service. It folds the
// program's own obs events into work counts per request ID and, in the
// traced pass, keeps each event with the wall time it arrived at (events
// are delivered synchronously by the emitting goroutine, so arrival time
// is emission time).
type eventSink struct {
	keep bool

	mu     sync.Mutex
	perReq map[string]*work
	events []timedEvent
}

type timedEvent struct {
	at time.Time
	e  obs.Event
}

// work is the deterministic work a request (or a figure suite) caused,
// as counted from its obs events.
type work struct {
	Events     int `json:"events"`
	Applies    int `json:"engine_applies"`
	LPPivots   int `json:"lp_pivots"`
	DualPivots int `json:"lp_dual_pivots"`
	Nodes      int `json:"milp_nodes"`
}

func (w *work) fold(e obs.Event) {
	w.Events++
	switch e.Kind {
	case obs.EngineOpApply:
		w.Applies++
	case obs.LPSolve:
		w.LPPivots += e.Iters
	case obs.LPWarmStart:
		w.DualPivots += e.Iters
	case obs.BBNode:
		w.Nodes++
	}
}

func (w *work) add(o work) {
	w.Events += o.Events
	w.Applies += o.Applies
	w.LPPivots += o.LPPivots
	w.DualPivots += o.DualPivots
	w.Nodes += o.Nodes
}

func newEventSink(keep bool) *eventSink { return &eventSink{keep: keep, perReq: map[string]*work{}} }

func (s *eventSink) Write(e obs.Event) {
	var at time.Time
	if s.keep {
		at = time.Now()
	}
	s.mu.Lock()
	w := s.perReq[e.Req]
	if w == nil {
		w = &work{}
		s.perReq[e.Req] = w
	}
	w.fold(e)
	if s.keep {
		s.events = append(s.events, timedEvent{at, e})
	}
	s.mu.Unlock()
}

func (s *eventSink) Close() error { return nil }

// work returns the counts folded for one request ID ("" collects events
// emitted outside any request).
func (s *eventSink) work(req string) work {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.perReq[req]; w != nil {
		return *w
	}
	return work{}
}

// server is one nocdeployd-equivalent service on a loopback listener.
type server struct {
	svc   *service.Service
	arch  *archive.Store
	srv   *http.Server
	url   string
	errc  chan error
	stats archive.StoreStats // filled by close
}

// startServer opens a dir-backed archive under dir and starts the
// service with nocdeployd's default settings on 127.0.0.1.
func startServer(dir string, sink *eventSink) (*server, error) {
	arch, err := archive.Open(archive.Options{Dir: dir, MaxBytes: 256 << 20})
	if err != nil {
		return nil, fmt.Errorf("opening archive: %w", err)
	}
	svc := service.New(service.Config{
		QueueDepth:     64,
		CacheSize:      256,
		MaxJobs:        256,
		MaxTimeout:     time.Hour,
		Metrics:        obs.NewMetrics(),
		TraceBuffer:    4096,
		StreamBuffer:   256,
		Heartbeat:      15 * time.Second,
		FlightRecorder: 64,
		Archive:        arch,
		TraceSinks:     []obs.Sink{sink},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, arch: arch, srv: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, drains the service (every archive record is
// durable and its event delivered on return) and keeps the archive's
// accounting.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	s.stats = s.arch.StoreStats()
	return err
}

// metrics fetches the service's /metrics JSON snapshot.
func (s *server) metrics(c *http.Client) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", resp.StatusCode)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&snap)
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return snap, err
}

// reply is the client-side record of one request.
type reply struct {
	status    int
	cache     string // X-Cache
	cancelled string // X-Solve-Cancelled
	id        string // X-Request-ID
	body      []byte
	sent      time.Time
	done      time.Time
	client    int
	err       error
}

func (r *reply) latency() time.Duration { return r.done.Sub(r.sent) }

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func post(c *http.Client, url string, r *request) *reply {
	rep := &reply{}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve?"+r.Query, bytes.NewReader(r.Body))
	if err != nil {
		rep.err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	rep.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		rep.done, rep.err = time.Now(), err
		return rep
	}
	rep.body, rep.err = io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rep.err == nil {
		rep.err = cerr
	}
	rep.done = time.Now()
	rep.status = resp.StatusCode
	rep.cache = resp.Header.Get("X-Cache")
	rep.cancelled = resp.Header.Get("X-Solve-Cancelled")
	rep.id = resp.Header.Get("X-Request-ID")
	return rep
}

// drive runs a closed loop of `clients` clients over reqs in index order:
// each client sends its next request only after its previous reply. No
// request is sent after stop (the zero time means run the whole list);
// requests in flight finish. A repeat is sent only once the request it
// repeats has been answered, so it must be a cache hit. It returns the
// replies of every request sent, which is a prefix of reqs.
func drive(c *http.Client, url string, reqs []*request, clients int, stop time.Time) []*reply {
	replies := make([]*reply, len(reqs))
	answered := make([]chan struct{}, len(reqs))
	for i := range answered {
		answered[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				if !stop.IsZero() && !time.Now().Before(stop) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if r.RepeatOf >= 0 {
					<-answered[r.RepeatOf]
				}
				rep := post(c, url, r)
				rep.client = k
				replies[i] = rep
				close(answered[i])
			}
		}(k)
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	return replies[:n]
}

// checker validates replies against their instances, the local analogue
// of `deployctl solve -check`.
type checker struct {
	reqs    []*request
	replies []*reply
}

// check validates reply i and returns the max-per-core energy of the
// returned deployment.
func (ck checker) check(i int) (float64, error) {
	r, rep := ck.reqs[i], ck.replies[i]
	switch {
	case rep.err != nil:
		return 0, rep.err
	case rep.status != http.StatusOK:
		return 0, fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	case rep.cancelled != "false":
		return 0, fmt.Errorf("X-Solve-Cancelled=%q", rep.cancelled)
	}
	if r.RepeatOf >= 0 {
		if rep.cache != "hit" {
			return 0, fmt.Errorf("repeat of request %d answered %q, want a cache hit", r.RepeatOf, rep.cache)
		}
		if !bytes.Equal(rep.body, ck.replies[r.RepeatOf].body) {
			return 0, fmt.Errorf("repeat of request %d returned a different deployment", r.RepeatOf)
		}
	} else if rep.cache != "miss" {
		return 0, fmt.Errorf("unique request answered %q, want miss", rep.cache)
	}
	var dep spec.Deployment
	if err := json.Unmarshal(rep.body, &dep); err != nil {
		return 0, fmt.Errorf("decoding deployment: %w", err)
	}
	inst, err := r.instance()
	if err != nil {
		return 0, err
	}
	sys, err := inst.Build()
	if err != nil {
		return 0, err
	}
	m, verr := core.Validate(sys, dep.ToDeployment())
	if m == nil {
		return 0, fmt.Errorf("malformed deployment: %w", verr)
	}
	if dep.Feasible != (verr == nil) {
		return 0, fmt.Errorf("reply says feasible=%v, local validation says %v", dep.Feasible, verr)
	}
	if math.Abs(dep.MaxEnergy-m.MaxEnergy) > 1e-9*math.Max(1, math.Abs(m.MaxEnergy)) {
		return 0, fmt.Errorf("reply maxEnergy %g, local %g", dep.MaxEnergy, m.MaxEnergy)
	}
	return m.MaxEnergy, nil
}

// servePass is one service lifetime driven over one request list.
type servePass struct {
	replies  []*reply
	wall     time.Duration // first send to last reply
	allocB   uint64        // bytes allocated during the measured loop
	failed   int
	failures []string // first few failure messages
	energies []float64
	stats    archive.StoreStats
	snap     obs.Snapshot // /metrics change over the measured loop (traced pass)
}

func (p *servePass) fail(i int, err error) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf("request %d: %v", i, err))
	}
}

// warmUp sends the warm-up list and fails on any bad reply.
func warmUp(c *http.Client, url string, warm []*request, clients int) error {
	reps := drive(c, url, warm, clients, time.Time{})
	ck := checker{warm, reps}
	for i := range reps {
		if _, err := ck.check(i); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// newStateDir makes a fresh, empty directory under state for one
// service's archive.
func newStateDir(state, tag string) (string, error) {
	if err := os.MkdirAll(state, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(state, tag+"-")
}

// runPass sets a service up `setups` times — archive.Open on a fresh
// directory, service.New, the listener and the warm-up list — keeping
// the last one, then drives reqs until stop, shuts the service down and
// validates every reply. It returns the set-up durations.
func runPass(state string, warm, reqs []*request, clients, setups int, stop func() time.Time, sink *eventSink, snapshot bool) (_ *servePass, _ []time.Duration, err error) {
	c := newClient(clients)
	defer c.CloseIdleConnections()
	var dirs []string
	defer func() {
		for _, d := range dirs {
			if rerr := os.RemoveAll(d); rerr != nil && err == nil {
				err = fmt.Errorf("removing archive directory: %w", rerr)
			}
		}
	}()
	var srv *server
	var setupTimes []time.Duration
	for k := 0; k < setups; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, nil, err
			}
		}
		dir, err := newStateDir(state, "archive")
		if err != nil {
			return nil, nil, err
		}
		dirs = append(dirs, dir)
		s := sink
		if k < setups-1 {
			s = newEventSink(false)
		}
		t0 := time.Now()
		if srv, err = startServer(dir, s); err != nil {
			return nil, nil, err
		}
		if err := warmUp(c, srv.url, warm, clients); err != nil {
			_ = srv.close()
			return nil, nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}

	p := &servePass{}
	var before obs.Snapshot
	if snapshot {
		var err error
		if before, err = srv.metrics(c); err != nil {
			_ = srv.close()
			return nil, nil, err
		}
	}
	var ms runtimeMem
	ms.start()
	start := time.Now()
	p.replies = drive(c, srv.url, reqs, clients, stop())
	p.allocB = ms.allocated()
	var last time.Time
	for _, r := range p.replies {
		if r.done.After(last) {
			last = r.done
		}
	}
	p.wall = last.Sub(start)
	if snapshot {
		var err error
		after, err := srv.metrics(c)
		if err != nil {
			_ = srv.close()
			return nil, nil, err
		}
		p.snap = after.DeltaFrom(before)
	}
	if err := srv.close(); err != nil {
		return nil, nil, fmt.Errorf("stopping service: %w", err)
	}
	p.stats = srv.stats

	ck := checker{reqs, p.replies}
	for i := range p.replies {
		e, err := ck.check(i)
		if err != nil {
			p.fail(i, err)
			continue
		}
		p.energies = append(p.energies, e)
	}
	return p, setupTimes, nil
}
