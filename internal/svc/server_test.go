package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nimbus/internal/runner"
	"nimbus/internal/sim"
)

// stubRun is a deterministic stand-in for exp.RunScenario: metrics depend
// only on the scenario (through the derived seed), like a real run.
func stubRun(sc runner.Scenario) runner.Result {
	rng := sim.NewRand(sc.EffectiveSeed())
	return runner.Result{
		Scenario: sc,
		Metrics: map[string]float64{
			"mean_mbps":     sc.RateMbps * rng.Float64(),
			"qdelay_p95_ms": 10 * rng.Float64(),
		},
		Events:  uint64(sc.EffectiveSeed()&0xffff) + 1,
		WallSec: 0.25, // fixed so remote and "local" runs are byte-comparable
	}
}

func smallGrid() runner.Grid {
	return runner.Grid{
		Base:      runner.Scenario{RateMbps: 96, RTTms: 50, BufferMs: 100, DurationSec: 5, Seed: 1},
		RatesMbps: []float64{48, 96},
		RTTsMs:    []float64{25, 50},
	}
}

// newTestServer wires a Server over a stub run function and returns a
// client pointed at it plus the shared run counter.
func newTestServer(t *testing.T, run runner.RunFunc) (*Client, *Server) {
	t.Helper()
	store := newTestStore(t, t.TempDir(), 64, "test-v1")
	// No Logf: the job goroutine outlives a test's last HTTP response by
	// a few statements, and t.Logf after test completion panics.
	srv := &Server{Store: store, Run: run, Workers: 2}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return NewClient(hs.URL), srv
}

// TestServerEndToEnd drives the full surface through the Client: submit,
// results byte-identical to a local batch run, second submission all
// cache hits with identical raw bytes, status and metrics accounting.
func TestServerEndToEnd(t *testing.T) {
	var runs atomic.Int64
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		runs.Add(1)
		return stubRun(sc)
	})
	ctx := context.Background()
	g := smallGrid()

	created, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if created.Total != 4 {
		t.Fatalf("submitted grid expanded to %d cells, want 4", created.Total)
	}
	remote1, err := client.RawResults(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The daemon's results document is byte-identical to what the batch
	// CLIs emit for the same grid: same cells, same order, same encoder.
	local := (&runner.Runner{Workers: 1}).Run(g.Expand(), stubRun)
	var want bytes.Buffer
	if err := runner.WriteJSON(&want, local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote1, want.Bytes()) {
		t.Fatalf("remote results differ from local batch output:\nremote: %s\nlocal:  %s", remote1, want.Bytes())
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("first job ran %d cells, want 4", got)
	}

	// Second submission of the same grid: zero simulations, 100%% hits,
	// raw bytes identical to the first response.
	created2, err := client.Submit(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote2, err := client.RawResults(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("repeated submission re-simulated (%d total runs, want 4)", got)
	}
	if !bytes.Equal(remote1, remote2) {
		t.Fatalf("repeated submission not byte-identical:\n1: %s\n2: %s", remote1, remote2)
	}
	st, err := client.Status(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Cells.Hit != 4 || st.Cells.Miss != 0 || st.Done != 4 {
		t.Fatalf("second job status %+v, want done with 4 hits", st)
	}

	// Metrics reflect both jobs.
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsSubmitted != 2 || m.JobsDone != 2 || m.CellsSimulated != 4 {
		t.Fatalf("metrics %+v, want 2 jobs done / 4 cells simulated", m)
	}
	if m.SimEvents == 0 || m.EventsPerSec == 0 {
		t.Fatalf("metrics missing throughput aggregates: %+v", m)
	}
	cs, err := client.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Misses != 4 || cs.MemHits != 4 || cs.CodeVersion != "test-v1" {
		t.Fatalf("cache stats %+v, want 4 misses + 4 memory hits", cs)
	}
}

// TestServerEvents: the events stream carries one runner.FormatProgress
// line per cell, tagged with the cache outcome, and terminates when the
// job does.
func TestServerEvents(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	ctx := context.Background()
	created, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := client.StreamEvents(ctx, created.ID, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != created.Total {
		t.Fatalf("streamed %d lines, want %d:\n%s", len(lines), created.Total, buf.String())
	}
	for i, ln := range lines {
		if !strings.HasPrefix(ln, "[") || !strings.Contains(ln, "ev/s") {
			t.Fatalf("line %d is not a progress line: %q", i, ln)
		}
		if !strings.HasSuffix(ln, "[miss]") {
			t.Fatalf("line %d missing outcome tag: %q", i, ln)
		}
	}
	// A second submission's stream shows hits.
	created2, _ := client.Submit(ctx, smallGrid(), 0)
	buf.Reset()
	if err := client.StreamEvents(ctx, created2.ID, &buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "[hit-"); n != created2.Total {
		t.Fatalf("second stream shows %d hits, want %d:\n%s", n, created2.Total, buf.String())
	}
}

// TestServerCancel: DELETE stops a running job; cells not yet started
// report cancellation, in-flight cells complete and are cached.
func TestServerCancel(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan string, 16)
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		entered <- sc.Name
		<-release
		return stubRun(sc)
	})
	ctx := context.Background()
	// One worker: cell 0 blocks in the stub, cells 1..3 are pending.
	created, err := client.Submit(ctx, smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // cell 0 is in flight
	if _, err := client.Cancel(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	close(release)

	rs, err := client.Results(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d results, want 4", len(rs))
	}
	if rs[0].Err != "" {
		t.Fatalf("in-flight cell should complete, got error %q", rs[0].Err)
	}
	canceled := 0
	for _, r := range rs[1:] {
		if strings.Contains(r.Err, "canceled") {
			canceled++
		}
	}
	if canceled != 3 {
		t.Fatalf("%d cells canceled, want 3: %+v", canceled, rs)
	}
	st, err := client.Status(ctx, created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCanceled || st.Cells.Errors != 3 || st.Cells.Miss != 1 {
		t.Fatalf("status %+v, want canceled with 1 miss + 3 errors", st)
	}
	// The completed cell's result was cached: resubmitting costs 3 runs.
	created2, _ := client.Submit(ctx, smallGrid(), 0)
	if _, err := client.RawResults(ctx, created2.ID); err != nil {
		t.Fatal(err)
	}
	st2, _ := client.Status(ctx, created2.ID)
	if st2.Cells.Hit != 1 || st2.Cells.Miss != 3 {
		t.Fatalf("after cancel, second job %+v, want 1 hit + 3 misses", st2)
	}
}

// TestServerConcurrentJobsShareCells: two jobs over the same grid
// submitted back-to-back cost one simulation per cell between them.
func TestServerConcurrentJobsShareCells(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		runs.Add(1)
		<-release
		return stubRun(sc)
	})
	ctx := context.Background()
	a, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	ra, err := client.RawResults(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := client.RawResults(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatalf("concurrent jobs disagree:\na: %s\nb: %s", ra, rb)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("two overlapping jobs ran %d simulations, want 4 (one per cell)", got)
	}
	sa, _ := client.Status(ctx, a.ID)
	sb, _ := client.Status(ctx, b.ID)
	shared := sa.Cells.Shared + sb.Cells.Shared + sa.Cells.Hit + sb.Cells.Hit
	if sa.Cells.Miss+sb.Cells.Miss != 4 || shared != 4 {
		t.Fatalf("cells not shared across jobs: a=%+v b=%+v", sa.Cells, sb.Cells)
	}
}

// TestServerBadRequests: malformed grids and unknown jobs produce typed
// errors, not hangs.
func TestServerBadRequests(t *testing.T) {
	client, _ := newTestServer(t, stubRun)
	ctx := context.Background()
	created, err := client.Submit(ctx, runner.Grid{}, 0)
	if err != nil {
		t.Fatalf("an empty grid still expands to its base cell: %v", err)
	}
	// Drain the job so its goroutine is quiet before the test exits.
	if _, err := client.RawResults(ctx, created.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Status(ctx, "999"); err == nil || !strings.Contains(err.Error(), "no job") {
		t.Fatalf("unknown job: err = %v, want not-found", err)
	}
	if _, err := client.Cancel(ctx, "999"); err == nil {
		t.Fatal("cancel of unknown job should fail")
	}
	// Unknown fields are refused, never silently ignored: a scenario
	// option that no longer exists must fail the request.
	body := `{"grid": {"base": {"rate_mbps": 24, "duration_sec": 1, "link_burst": 16}}}`
	resp, err := http.Post(client.Base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /jobs with link_burst: status %d, want 400", resp.StatusCode)
	}
	srv2 := &Server{Store: newTestStore(t, t.TempDir(), 4, "v"), Run: stubRun, MaxCells: 2}
	hs := httptest.NewServer(srv2.Handler())
	defer hs.Close()
	big := NewClient(hs.URL)
	if _, err := big.Submit(ctx, smallGrid(), 0); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized grid: err = %v, want cell-limit rejection", err)
	}

	// An invalid spec on any axis is a 400 naming the field: no job, no
	// journal record, no cell run.
	journalDir := t.TempDir()
	journal, _, err := OpenJournal(journalDir, false)
	if err != nil {
		t.Fatal(err)
	}
	srv3 := &Server{Store: newTestStore(t, t.TempDir(), 4, "v"), Journal: journal, Run: func(sc runner.Scenario) runner.Result {
		t.Errorf("invalid grid ran cell %s", sc.Key())
		return stubRun(sc)
	}}
	hs3 := httptest.NewServer(srv3.Handler())
	defer hs3.Close()
	strict := NewClient(hs3.URL)
	for _, c := range []struct{ grid, field string }{
		{`{"schemes": ["cubic", "nosuch"]}`, "schemes[1]"},
		{`{"topologies": ["nosuch"]}`, "topologies[0]"},
		{`{"flow_mixes": ["nimbus+nosuch"]}`, "flow_mixes[0]"},
		{`{"churns": ["bulk(nosuch=1)"]}`, "churns[0]"},
		{`{"base": {"fluid_cross": "sometimes"}}`, "base.fluid_cross"},
	} {
		var g runner.Grid
		if err := json.Unmarshal([]byte(c.grid), &g); err != nil {
			t.Fatal(err)
		}
		_, err := strict.Submit(ctx, g, 0)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, c.field+": ") {
			t.Errorf("grid %s: err = %v, want 400 naming %s", c.grid, err, c.field)
		}
	}
	journal.Close()
	if _, recs, err := OpenJournal(journalDir, false); err != nil || len(recs) != 0 {
		t.Fatalf("rejected grids left journal records %+v (err %v)", recs, err)
	}
}

// TestServerCanonicalizesSpellings: a grid resubmitted with equivalent
// spellings of its specs is the same set of cells, served entirely from
// the cache with byte-identical results.
func TestServerCanonicalizesSpellings(t *testing.T) {
	var runs atomic.Int64
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		runs.Add(1)
		return stubRun(sc)
	})
	ctx := context.Background()
	g1 := smallGrid()
	g1.Churns = []string{"bulk(load=24)"}
	g1.Base.FlowMix = "nimbus+cubic"
	g2 := smallGrid()
	g2.Churns = []string{"bulk(load=24.0)"}
	g2.Base.FlowMix = "nimbus + cubic"
	g2.Topologies = []string{"single"}
	g2.Fluids = []string{"off"}

	created1, err := client.Submit(ctx, g1, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw1, err := client.RawResults(ctx, created1.ID)
	if err != nil {
		t.Fatal(err)
	}
	created2, err := client.Submit(ctx, g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := client.RawResults(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("respelled resubmission re-simulated (%d total runs, want 4)", got)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("respelled resubmission not byte-identical:\n1: %s\n2: %s", raw1, raw2)
	}
	st, err := client.Status(ctx, created2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Cells.Miss != 0 || st.Cells.Hit != st.Total {
		t.Fatalf("respelled job status %+v, want done with all hits", st)
	}
}

// TestServerResultsWaitsForCompletion: a results request issued while the
// job is still running blocks until completion instead of returning a
// partial document.
func TestServerResultsWaitsForCompletion(t *testing.T) {
	release := make(chan struct{})
	client, _ := newTestServer(t, func(sc runner.Scenario) runner.Result {
		<-release
		return stubRun(sc)
	})
	ctx := context.Background()
	created, err := client.Submit(ctx, smallGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []runner.Result, 1)
	go func() {
		rs, err := client.Results(ctx, created.ID)
		if err != nil {
			t.Error(err)
		}
		got <- rs
	}()
	select {
	case <-got:
		t.Fatal("results returned before any cell completed")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case rs := <-got:
		if len(rs) != 4 {
			t.Fatalf("got %d results, want 4", len(rs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("results never returned after completion")
	}
}
