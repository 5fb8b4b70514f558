package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
	"nimbus/internal/svc"
)

// The svc workload is a closed loop: `workers` (2) clients, each
// submitting its next job only after the previous job's result bytes
// arrived. A quarter of the jobs carry fresh grid seeds and simulate
// (misses); the rest repeat one of SvcPool grids filled before timing
// (hits), served from the store's memory tier or, since the tier holds
// fewer cells than the pool, from disk.

// missShare is the share of svc jobs that carry fresh seeds.
const missShare = 0.25

// Grid seeds: pool grid i gets gridSeed(seed, 0, i), client c's k-th
// fresh grid gridSeed(seed, c+1, k), so the two never collide.
func gridSeed(seed int64, stream, i int) int64 {
	return seed*1_000_000_000 + int64(stream)*10_000_000 + int64(i)
}

// daemon is one in-process nimbus-svc instance on a loopback port,
// booted like cmd/nimbus-svc.
type daemon struct {
	store   *svc.Store
	journal *svc.Journal
	hs      *http.Server
	served  chan error
	base    string
}

// startDaemon opens the store and journal in dir, replays the journal,
// serves, and returns once /readyz answers 200 and every replayed job
// has finished. total covers all of it; replay starts at the Replay call.
func startDaemon(dir string, sz size, inst *instrument) (d *daemon, total, replay time.Duration, err error) {
	t0 := time.Now()
	store, err := svc.NewStore(filepath.Join(dir, "cache"), sz.SvcMemEntries, "perfbench")
	if err != nil {
		return nil, 0, 0, err
	}
	journal, records, err := svc.OpenJournal(filepath.Join(dir, "cache", "journal"), false)
	if err != nil {
		return nil, 0, 0, err
	}
	srv := &svc.Server{Store: store, Run: exp.RunScenario, Workers: 1, Journal: journal}
	h := srv.Handler()
	if inst != nil {
		srv.Run = inst.run
		h = inst.wrap(h)
	}
	srv.Start()
	t1 := time.Now()
	srv.Replay(records)
	srv.SetReady()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		journal.Close()
		return nil, 0, 0, err
	}
	d = &daemon{store: store, journal: journal, hs: &http.Server{Handler: h}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := d.awaitReady(); err != nil {
		d.stop()
		return nil, 0, 0, err
	}
	return d, time.Since(t0), time.Since(t1), nil
}

// awaitReady polls /readyz, then /metrics until no job is running.
func (d *daemon) awaitReady() error {
	c := svc.NewClient(d.base)
	deadline := time.Now().Add(60 * time.Second)
	for ready := false; ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("svc: daemon not ready after 60s")
		}
		if !ready {
			resp, err := http.Get(d.base + "/readyz")
			if err != nil {
				continue
			}
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
			if !ready {
				continue
			}
		}
		m, err := c.Metrics(context.Background())
		if err != nil {
			return err
		}
		if m.JobsRunning == 0 {
			return nil
		}
	}
}

// stop shuts the daemon down and waits for its server goroutine.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// instrument is the traced run's wrapping of the daemon: its handler is
// timed per route and its injected Run is runTracedCell, while on is set.
// Off, both pass straight through (one atomic load per request and cell).
type instrument struct {
	on atomic.Bool
	tr *tracer

	mu              sync.Mutex
	submit, results []float64 // handler ms
	runMs           []float64
	runBySeed       map[int64]time.Duration
	counts          cellCounts
}

func (in *instrument) run(sc runner.Scenario) runner.Result {
	if !in.on.Load() {
		return exp.RunScenario(sc)
	}
	t0 := time.Now()
	r, c := runTracedCell(sc, in.tr, 0, 0)
	d := time.Since(t0)
	in.mu.Lock()
	in.runMs = append(in.runMs, ms(d))
	in.runBySeed[sc.Seed] += d
	in.counts.add(c)
	in.mu.Unlock()
	return r
}

// spanHeader carries the client's job span id to the server's handler
// spans.
const spanHeader = "X-Perfbench-Span"

func (in *instrument) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !in.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		var into *[]float64
		name := ""
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			into, name = &in.submit, "handler_submit"
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results"):
			into, name = &in.results, "handler_results"
		default:
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		in.tr.add(span{ID: in.tr.newID(), Parent: parent, Trace: parent, Name: name, Start: t0, End: t1})
		in.mu.Lock()
		*into = append(*into, ms(t1.Sub(t0)))
		in.mu.Unlock()
	})
}

// countingTransport counts a client's HTTP requests (more than two per
// job means the client retried) and, in traced rounds, tags each request
// with the current job's span id.
type countingTransport struct {
	rt       http.RoundTripper
	requests atomic.Int64
	span     atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if id := t.span.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.rt.RoundTrip(r)
}

// loadClient is one closed-loop client.
type loadClient struct {
	c    *svc.Client
	ct   *countingTransport
	tr   *http.Transport
	rng  *rand.Rand
	id   int
	next int // fresh grids issued
}

func newLoadClient(base string, seed int64, id int) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	ct := &countingTransport{rt: tr}
	c := svc.NewClient(base)
	c.HTTP = &http.Client{Transport: ct}
	c.Retry = svc.DefaultRetry
	return &loadClient{c: c, ct: ct, tr: tr, rng: rand.New(rand.NewSource(seed*31 + int64(id))), id: id}
}

// job is one submitted grid and what came back.
type job struct {
	Seed    int64
	Hit     bool
	Latency time.Duration
	Body    []byte
	Err     error
	Retries int64
}

// do submits one grid and fetches its results.
func (lc *loadClient) do(g runner.Grid, hit bool, tr *tracer, traced bool) job {
	j := job{Seed: g.Base.Seed, Hit: hit}
	n0 := lc.ct.requests.Load()
	id := int64(0)
	if traced {
		id = tr.newID()
		lc.ct.span.Store(id)
		defer lc.ct.span.Store(0)
	}
	t0 := time.Now()
	created, err := lc.c.Submit(context.Background(), g, 1)
	t1 := time.Now()
	if err == nil {
		j.Body, err = lc.c.RawResults(context.Background(), created.ID)
	}
	t2 := time.Now()
	j.Latency, j.Err = t2.Sub(t0), err
	// A job makes two requests; more are the client's retries. A job
	// that failed early may have made fewer.
	j.Retries = max(0, lc.ct.requests.Load()-n0-2)
	if traced {
		tr.add(span{ID: id, Trace: id, Name: "job", Start: t0, End: t2, Attr: fmt.Sprintf("seed=%d hit=%v", j.Seed, hit)})
		tr.add(span{ID: tr.newID(), Parent: id, Trace: id, Name: "submit", Start: t0, End: t1})
		tr.add(span{ID: tr.newID(), Parent: id, Trace: id, Name: "results", Start: t1, End: t2})
	}
	return j
}

// wallRE matches the host wall-clock field of runner.WriteJSON output,
// the one part of a result that legitimately differs between runs.
var wallRE = regexp.MustCompile(`"wall_sec": [-+.0-9eE]+`)

func normalize(b []byte) []byte { return wallRE.ReplaceAll(b, []byte(`"wall_sec": 0`)) }

// jobFailed reports whether a job failed: an error (which includes any
// non-2xx response), a retry, or result bytes that differ from the
// normalized local reference want.
func jobFailed(j job, want []byte) bool {
	return j.Err != nil || j.Retries > 0 || want == nil || !bytes.Equal(normalize(j.Body), want)
}

// localResults runs grids locally on a 2-worker runner and returns each
// grid's normalized runner.WriteJSON bytes: the reference every job's
// response is compared with.
func localResults(grids []runner.Grid) (map[int64][]byte, error) {
	var scs []runner.Scenario
	var bounds []int
	for _, g := range grids {
		scs = append(scs, g.Expand()...)
		bounds = append(bounds, len(scs))
	}
	rs := (&runner.Runner{Workers: workers}).Run(scs, exp.RunScenario)
	out := make(map[int64][]byte, len(grids))
	lo := 0
	for i, g := range grids {
		var b bytes.Buffer
		if err := runner.WriteJSON(&b, rs[lo:bounds[i]]); err != nil {
			return nil, err
		}
		out[g.Base.Seed] = normalize(b.Bytes())
		lo = bounds[i]
	}
	return out, nil
}

// svcRound is one round of the closed loop.
type svcRound struct {
	Traced bool
	Wall   time.Duration
	CPU    float64
	Jobs   []job
}

// runSvc runs the svc workload: an untimed fill of the pool, set-up
// (daemon restarts on the filled cache and journal), then rounds of
// SvcRoundJobs jobs until the time budget is spent, each round's
// responses checked against local runs after the round's timed part.
func runSvc(o options, sz size) (result, error) {
	res := result{Values: map[string]float64{}}
	dir, err := os.MkdirTemp(o.OutDir, "svc-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	tr := &tracer{}
	var inst *instrument
	if o.Trace {
		inst = &instrument{tr: tr, runBySeed: map[int64]time.Duration{}}
	}

	pool := make([]runner.Grid, sz.SvcPool)
	for i := range pool {
		pool[i] = svcGrid(gridSeed(o.Seed, 0, i), sz)
	}
	want, err := localResults(pool)
	if err != nil {
		return res, err
	}

	// Untimed fill: the first daemon simulates and caches every pool grid.
	d, _, _, err := startDaemon(dir, sz, inst)
	if err != nil {
		return res, err
	}
	clients := make([]*loadClient, workers)
	for c := range clients {
		clients[c] = newLoadClient(d.base, o.Seed, c)
	}
	fill := forEachClient(clients, func(lc *loadClient) []job {
		var js []job
		for i := lc.id; i < len(pool); i += workers {
			js = append(js, lc.do(pool[i], false, tr, false))
		}
		return js
	})
	check := func(js []job) {
		for _, j := range js {
			res.Attempted++
			if jobFailed(j, want[j.Seed]) {
				res.Failed++
			}
		}
	}
	check(fill)
	if err := d.stop(); err != nil {
		return res, err
	}

	// Set-up: restart on the filled cache and journal, SetupReps times.
	for _, lc := range clients {
		lc.tr.CloseIdleConnections()
	}
	var setup, replay []float64
	for i := 0; i < sz.SetupReps; i++ {
		if i > 0 {
			if err := d.stop(); err != nil {
				return res, err
			}
		}
		var total, rep time.Duration
		runtime.GC() // start every set-up from a collected heap
		if d, total, rep, err = startDaemon(dir, sz, inst); err != nil {
			return res, err
		}
		setup = append(setup, total.Seconds())
		replay = append(replay, rep.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() // error path: the run's error is the one to report
		}
	}()
	for _, lc := range clients {
		lc.c.Base = d.base
	}

	var rounds []svcRound
	var statsT svc.StoreStats
	pr := &probe{o: o}
	err = forRounds(o, func(k int, traced bool) error {
		rd := svcRound{Traced: traced}
		play := func() {
			cpu0 := cpuSeconds()
			st := time.Now()
			rd.Jobs = forEachClient(clients, func(lc *loadClient) []job {
				js := make([]job, 0, sz.SvcRoundJobs/workers)
				for n := 0; n < sz.SvcRoundJobs/workers; n++ {
					if lc.rng.Float64() < missShare {
						lc.next++
						js = append(js, lc.do(svcGrid(gridSeed(o.Seed, lc.id+1, lc.next), sz), false, tr, traced))
					} else {
						js = append(js, lc.do(pool[lc.rng.Intn(len(pool))], true, tr, traced))
					}
				}
				return js
			})
			rd.Wall = time.Since(st)
			rd.CPU = cpuSeconds() - cpu0
		}
		if traced {
			inst.on.Store(true)
			stats0 := d.store.Stats()
			if err := pr.traced(k, play); err != nil {
				return err
			}
			statsT = addStats(statsT, subStats(d.store.Stats(), stats0))
			inst.on.Store(false)
		} else {
			play()
		}
		// Untimed: compare every response with a local run of its grid.
		var fresh []runner.Grid
		for _, j := range rd.Jobs {
			if !j.Hit {
				fresh = append(fresh, svcGrid(j.Seed, sz))
			}
		}
		local, err := localResults(fresh)
		if err != nil {
			return err
		}
		for seed, b := range local {
			want[seed] = b
		}
		check(rd.Jobs)
		for seed := range local {
			delete(want, seed)
		}
		for i := range rd.Jobs {
			rd.Jobs[i].Body = nil
		}
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		return res, err
	}

	var stats []roundStats
	for _, rd := range rounds {
		if rd.Traced {
			continue
		}
		st := roundStats{Wall: rd.Wall.Seconds(), CPU: rd.CPU, Jobs: len(rd.Jobs)}
		for _, j := range rd.Jobs {
			if j.Hit {
				st.Hit = append(st.Hit, ms(j.Latency))
			} else {
				st.Miss = append(st.Miss, ms(j.Latency))
			}
		}
		stats = append(stats, st)
		res.RoundWalls = append(res.RoundWalls, st.Wall)
	}
	v := res.Values
	setRoundMetrics(v, stats)
	v["setup_s"] = median(setup)
	v["peak_rss_mb"] = peakRSSMiB()

	if o.Trace {
		m, err := svc.NewClient(d.base).Metrics(context.Background())
		if err != nil {
			return res, err
		}
		var retries int64
		for _, rd := range rounds {
			for _, j := range rd.Jobs {
				retries += j.Retries
			}
		}
		inst.mu.Lock()
		svcLayers(v, rounds, inst, statsT, m, median(replay), retries)
		ticks := float64(inst.counts.Ticks)
		inst.mu.Unlock()
		if err := pr.finish(v, ticks); err != nil {
			return res, err
		}
		if err := writeTrace(o, tr, v); err != nil {
			return res, err
		}
	}
	for _, lc := range clients {
		lc.tr.CloseIdleConnections()
	}
	stopped = true
	return res, d.stop()
}

// forEachClient runs f once per client concurrently and concatenates the
// jobs in client order.
func forEachClient(clients []*loadClient, f func(*loadClient) []job) []job {
	out := make([][]job, len(clients))
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for i, lc := range clients {
		go func() {
			defer wg.Done()
			out[i] = f(lc)
		}()
	}
	wg.Wait()
	var all []job
	for _, js := range out {
		all = append(all, js...)
	}
	return all
}

func subStats(a, b svc.StoreStats) svc.StoreStats {
	return svc.StoreStats{MemHits: a.MemHits - b.MemHits, DiskHits: a.DiskHits - b.DiskHits, Misses: a.Misses - b.Misses, Shared: a.Shared - b.Shared}
}

func addStats(a, b svc.StoreStats) svc.StoreStats {
	return svc.StoreStats{MemHits: a.MemHits + b.MemHits, DiskHits: a.DiskHits + b.DiskHits, Misses: a.Misses + b.Misses, Shared: a.Shared + b.Shared}
}

// svcLayers derives the svc per-layer metrics of a traced run: store
// counters and cell counts per traced round, handler and run times over
// the traced rounds. The caller holds in.mu.
func svcLayers(v map[string]float64, rounds []svcRound, in *instrument, st svc.StoreStats, m svc.Metrics, replay float64, retries int64) {
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	var uWall, tWall, overhead []float64
	for _, rd := range rounds {
		if !rd.Traced {
			uWall = append(uWall, rd.Wall.Seconds())
			continue
		}
		tWall = append(tWall, rd.Wall.Seconds())
		for _, j := range rd.Jobs {
			if !j.Hit {
				overhead = append(overhead, ms(j.Latency-in.runBySeed[j.Seed]))
			}
		}
	}
	n := float64(len(tWall))
	cnt := in.counts
	v["trace_overhead_share"] = median(tWall)/median(uWall) - 1
	v["svc.mem_hits"] = float64(st.MemHits) / n
	v["svc.disk_hits"] = float64(st.DiskHits) / n
	v["svc.misses"] = float64(st.Misses) / n
	v["svc.shared"] = float64(st.Shared) / n
	if total := st.MemHits + st.DiskHits + st.Misses + st.Shared; total > 0 {
		v["svc.hit_ratio"] = float64(st.MemHits+st.DiskHits) / float64(total)
	}
	v["svc.submit_ms_p50"] = quantile(in.submit, 0.50)
	v["svc.submit_ms_p99"] = quantile(in.submit, 0.99)
	v["svc.results_ms_p50"] = quantile(in.results, 0.50)
	v["svc.results_ms_p99"] = quantile(in.results, 0.99)
	v["svc.run_ms_p50"] = quantile(in.runMs, 0.50)
	v["svc.overhead_ms_p50"] = quantile(overhead, 0.50)
	v["svc.replay_s"] = replay
	v["svc.client_retries"] = float64(retries)
	v["svc.disk_errors"] = float64(m.DiskErrors)
	v["svc.jobs_shed"] = float64(m.JobsShed)
	v["exp.rig_build_ms"] = float64(cnt.BuildNs) / 1e6 / float64(max(len(in.runMs), 1))
	v["sim.events"] = float64(cnt.Events) / n
	if cnt.Events > 0 {
		v["sim.ns_per_event"] = float64(cnt.SimNs) / float64(cnt.Events)
	}
	if cnt.PendingN > 0 {
		v["sim.pending_mean"] = cnt.PendingSum / cnt.PendingN
	}
	v["sim.pending_max"] = float64(cnt.PendingMax)
	v["netem.pkts_delivered"] = float64(cnt.Delivered) / n
	v["netem.pkts_dropped"] = float64(cnt.Dropped) / n
	v["transport.timeouts"] = float64(cnt.Timeouts) / n
	v["core.ticks"] = float64(cnt.Ticks) / n
	v["core.mode_switches"] = float64(cnt.ModeSwitches) / n
}
