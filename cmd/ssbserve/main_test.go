package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crystal/internal/serve"
	"crystal/internal/ssb"
	"crystal/internal/trace"
)

// TestMetricsSmoke is the end-to-end observability smoke test (make
// metrics-smoke): boot the real handler set, drive mixed traffic through
// /query, then scrape /metrics and validate the exposition, check /stats
// in both formats agrees with it, follow a trace_id through /trace in both
// formats, and check the no-id listing.
func TestMetricsSmoke(t *testing.T) {
	svc := serve.New(ssb.GenerateRows(1<<12), "smoke", serve.Options{Workers: 2, Trace: true})
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	get := func(path string, wantStatus int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, body)
		}
		return string(body)
	}

	var lastTraceID string
	for _, path := range []string{
		"/query?id=q1.1&engine=cpu",
		"/query?id=q2.1&engine=gpu&gpus=2&partitions=8",
		"/query?id=q4.1&placement=hybrid&gpus=2&interconnect=nvlink",
		"/query?id=q1.1&engine=cpu", // result-cache hit
	} {
		var qr queryResponse
		if err := json.Unmarshal([]byte(get(path, http.StatusOK)), &qr); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if qr.TraceID == "" {
			t.Fatalf("GET %s: no trace_id in response", path)
		}
		lastTraceID = qr.TraceID
	}

	// /metrics: valid exposition with the latency histogram grid.
	metrics := get("/metrics", http.StatusOK)
	if err := trace.Validate(metrics); err != nil {
		t.Fatalf("invalid /metrics exposition: %v", err)
	}
	for _, want := range []string{
		"# TYPE ssb_requests_total counter",
		"# TYPE ssb_request_wall_seconds histogram",
		`engine="cpu",placement="classic"`,
		`placement="hybrid"`,
		`le="+Inf"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /stats renders the same snapshot: its request count is the sum of the
	// scraped per-(engine, placement) request counters (the traffic above
	// has no errors), and the text view names every row the JSON lists.
	var st serve.Stats
	if err := json.Unmarshal([]byte(get("/stats", http.StatusOK)), &st); err != nil {
		t.Fatal(err)
	}
	var scraped float64
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, "ssb_requests_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		scraped += v
	}
	if st.Requests == 0 || float64(st.Requests) != scraped {
		t.Errorf("/stats requests = %d, /metrics ssb_requests_total sums to %g", st.Requests, scraped)
	}
	statsText := get("/stats?format=text", http.StatusOK)
	if len(st.FleetDevices) == 0 || len(st.HybridExecutors) == 0 {
		t.Fatalf("/stats lists %d fleet devices and %d hybrid executors, want both nonzero",
			len(st.FleetDevices), len(st.HybridExecutors))
	}
	for _, d := range st.FleetDevices {
		if row := fmt.Sprintf("  gpu %-2d ", d.Device); !strings.Contains(statsText, row) {
			t.Errorf("/stats?format=text has no row %q for fleet device %d", row, d.Device)
		}
	}
	for _, ex := range st.HybridExecutors {
		if row := fmt.Sprintf("  %-11s ", ex.Label); !strings.Contains(statsText, row) {
			t.Errorf("/stats?format=text has no row %q for executor %s", row, ex.Label)
		}
	}

	// /trace?id=: the JSON trace round-trips, the text format renders the
	// EXPLAIN ANALYZE tree.
	var tr trace.Trace
	if err := json.Unmarshal([]byte(get("/trace?id="+lastTraceID, http.StatusOK)), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != lastTraceID || tr.Root == nil {
		t.Fatalf("trace %s round-tripped wrong: %+v", lastTraceID, tr)
	}
	text := get("/trace?id="+lastTraceID+"&format=text", http.StatusOK)
	if !strings.Contains(text, "q1.1") || !strings.Contains(text, "└─") {
		t.Errorf("text trace missing tree rendering:\n%s", text)
	}

	// /trace without id lists the recorder's retained traces.
	var listing struct {
		Recent  []traceSummary `json:"recent"`
		Slowest []traceSummary `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(get("/trace", http.StatusOK)), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Recent) != 4 || len(listing.Slowest) == 0 {
		t.Errorf("listing has %d recent / %d slowest, want 4 / >0",
			len(listing.Recent), len(listing.Slowest))
	}

	get("/trace?id=t999", http.StatusNotFound)
}

// TestOverloadHTTP pins the admission-control HTTP mapping on a shedding
// single-worker service: a request storm yields only 200s and 429s (each
// 429 carrying Retry-After), an unmeetable deadline maps to 504 without
// executing, and malformed deadline/priority parameters are 400s.
func TestOverloadHTTP(t *testing.T) {
	// ExecDelay pins every uncached execution to 2ms so the storm below
	// must overrun a depth-1 queue on any machine, not drain it.
	svc := serve.New(ssb.GenerateRows(1<<12), "overload", serve.Options{
		Workers: 1, QueueDepth: 1, Shed: true, ExecDelay: 2 * time.Millisecond,
	})
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	const storm = 30
	statuses := make([]int, storm)
	retryAfter := make([]string, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/query?id=q4.1&engine=cpu&nocache=1&priority=1")
			if err != nil {
				t.Errorf("storm request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 response missing its Retry-After header")
			}
		default:
			t.Errorf("storm request %d: status %d, want 200 or 429", i, st)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("storm of %d against a depth-1 queue: %d ok / %d shed, want both nonzero", storm, ok, shed)
	}
	st := svc.Stats()
	if st.Shed != int64(shed) {
		t.Errorf("stats recorded %d shed, HTTP clients observed %d 429s", st.Shed, shed)
	}

	// A deadline no queue wait can meet: dropped at pickup, 504, and the
	// response body names the expiry.
	resp, err := http.Get(srv.URL + "/query?id=q1.1&engine=cpu&nocache=1&deadline=1ns")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unmeetable deadline: status %d, want 504\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline expired") {
		t.Errorf("504 body does not name the expiry: %s", body)
	}

	for _, path := range []string{
		"/query?id=q1.1&deadline=banana",
		"/query?id=q1.1&deadline=-1s",
		"/query?id=q1.1&priority=high",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestEvictionHTTP pins accounting parity on the HTTP surface for the
// OTHER shed path: a queued victim evicted by a higher-priority arrival
// must observe exactly what a refused newcomer observes — 429 with a
// Retry-After header — and increment the same shed counter.
func TestEvictionHTTP(t *testing.T) {
	svc := serve.New(ssb.GenerateRows(1<<12), "evict", serve.Options{
		Workers: 1, QueueDepth: 1, Shed: true, ExecDelay: 200 * time.Millisecond,
	})
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, ""
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	waitPending := func(n int) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			if svc.Stats().Pending == n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("queue never reached %d pending", n)
	}

	var wg sync.WaitGroup
	results := make([]int, 2)
	var victimRetry string
	wg.Add(1)
	go func() { // occupies the worker for ExecDelay
		defer wg.Done()
		st, _ := get("/query?id=q1.1&engine=cpu&nocache=1")
		if st != http.StatusOK {
			t.Errorf("blocker: status %d, want 200", st)
		}
	}()
	waitPending(0) // picked up; the queue slot below is the only one
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go func() { // the victim: queued at priority 1
		defer wg.Done()
		results[0], victimRetry = get("/query?id=q1.2&engine=cpu&priority=1")
	}()
	waitPending(1)
	wg.Add(1)
	go func() { // priority 2 evicts the victim and takes its slot
		defer wg.Done()
		results[1], _ = get("/query?id=q1.3&engine=cpu&priority=2")
	}()
	wg.Wait()

	if results[0] != http.StatusTooManyRequests {
		t.Errorf("evicted victim: status %d, want 429", results[0])
	}
	if victimRetry == "" {
		t.Error("evicted victim's 429 missing its Retry-After header")
	}
	if results[1] != http.StatusOK {
		t.Errorf("evictor: status %d, want 200", results[1])
	}
	if st := svc.Stats(); st.Shed != 1 {
		t.Errorf("stats recorded %d shed, want exactly the evicted victim", st.Shed)
	}
}

// TestShapeErrorsHTTP pins that every shape parameter is validated once, by
// the service: a bad placement, an unknown interconnect and a fleet past
// fleet.MaxGPUs are 400s whose body is the service's error, each counted as
// an error and none executed; malformed wire values and an interconnect
// without a fleet or a placement are refused at the edge.
func TestShapeErrorsHTTP(t *testing.T) {
	svc := serve.New(ssb.GenerateRows(1<<12), "shape", serve.Options{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(newMux(svc))
	defer srv.Close()

	cases := []struct{ path, body string }{
		{"/query?id=q1.1&placement=moon", `unknown placement \"moon\"`},
		{"/query?id=q1.1&engine=gpu&gpus=2&interconnect=carrier-pigeon", `unknown interconnect \"carrier-pigeon\"`},
		{"/query?id=q1.1&engine=gpu&gpus=65", "65 GPUs exceeds the 64-device fleet bound"},
		{"/query?id=q1.1&placement=cpu&gpus=65", "65 GPUs exceeds the 64-device fleet bound"},
		{"/query?id=q1.1&engine=cpu&interconnect=nvlink", "interconnect requires a fleet or a placement"},
		{"/query?id=q1.1&engine=cpu&nocache=maybe", `bad nocache value \"maybe\": want a boolean`},
		{"/query?id=q1.1&engine=cpu&partitions=-1", `bad partitions value \"-1\": want a non-negative integer`},
		{"/query?id=q1.1&engine=cpu&packed=2", `bad packed value \"2\": want a boolean`},
		{"/query?id=q1.1&engine=gpu&gpus=two", `bad gpus value \"two\": want a non-negative integer`},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.body) {
			t.Errorf("GET %s: status %d body %s, want 400 naming %q", tc.path, resp.StatusCode, body, tc.body)
		}
	}
	// Edge refusals never reach the service; the first four are its errors.
	if st := svc.Stats(); st.Errors != 4 || st.PlanMisses != 0 {
		t.Errorf("stats: %d errors, %d plan misses; want 4 errors and nothing compiled", st.Errors, st.PlanMisses)
	}
}

// TestErrorStatus pins the status of each failure class, the panicked
// execution (serve.ErrIncomplete) included: that one is the server's fault,
// a 500, never a 400.
func TestErrorStatus(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	refused := serve.Response{Err: errors.New("serve: unknown engine \"tpu\"")}
	for _, tc := range []struct {
		resp serve.Response
		err  error
		want int
	}{
		{serve.Response{}, serve.ErrOverloaded, http.StatusTooManyRequests},
		{serve.Response{Err: serve.ErrExpired}, serve.ErrExpired, http.StatusGatewayTimeout},
		{serve.Response{Err: serve.ErrIncomplete}, serve.ErrIncomplete, http.StatusInternalServerError},
		{serve.Response{}, ctx.Err(), http.StatusRequestTimeout},
		{refused, refused.Err, http.StatusBadRequest},
		{serve.Response{}, serve.ErrClosed, http.StatusInternalServerError},
	} {
		if got := errorStatus(ctx, tc.resp, tc.err); got != tc.want {
			t.Errorf("errorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
