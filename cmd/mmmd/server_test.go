package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/mode"
)

// micro is a submit body small enough for tests: one workload, one
// seed, tiny windows.
const micro = `{"name":"table2","scale":"quick",` +
	`"warmup":30000,"measure":60000,"timeslice":20000,` +
	`"workloads":["apache"],"seeds":[11]}`

func testService(t *testing.T) *httptest.Server {
	t.Helper()
	cache, err := campaign.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(context.Background(), cache, 2, 2)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// submitAndWait submits a campaign and polls until it reaches a
// terminal state, returning the final status.
func submitAndWait(t *testing.T, ts *httptest.Server, body string) api.RunStatus {
	t.Helper()
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var st api.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s", st.ID, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHealthAndCatalog(t *testing.T) {
	ts := testService(t)
	if code, _ := do(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	code, data := do(t, http.MethodGet, ts.URL+"/v1/catalog", "")
	if code != http.StatusOK || !bytes.Contains(data, []byte("figure5")) {
		t.Fatalf("catalog: %d %s", code, data)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	ts := testService(t)
	for _, body := range []string{
		"{not json",
		`{"name":"nope"}`,
		`{"name":"figure5","scale":"galactic"}`,
		`{"name":"figure5","workloads":["nope"]}`,
	} {
		if code, _ := do(t, http.MethodPost, ts.URL+"/v1/campaigns", body); code != http.StatusBadRequest {
			t.Errorf("submit %q: code %d, want 400", body, code)
		}
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/campaigns/c99", ""); code != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", code)
	}
}

// TestSubmitBoundsUntrustedSpecs: a submission expanding past
// campaign.MaxJobs answers 400 naming the limit and registers no run,
// and an oversized body is refused before it is decoded.
func TestSubmitBoundsUntrustedSpecs(t *testing.T) {
	ts := testService(t)
	seeds := make([]string, campaign.MaxJobs/3+1)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	overLimit := `{"name":"figure5","workloads":["apache"],"seeds":[` + strings.Join(seeds, ",") + `]}`
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", overLimit)
	if code != http.StatusBadRequest || !bytes.Contains(data, []byte(fmt.Sprint(campaign.MaxJobs))) {
		t.Fatalf("over-limit submit: %d %s, want 400 naming %d", code, data, campaign.MaxJobs)
	}
	manyTrials := `{"name":"relia","workloads":["apache"],"seeds":[11],"precision":{"half_width":0.25,"wave_trials":1000000000}}`
	limit := fmt.Sprint(api.PrecisionAxis().MaxTrials)
	if code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", manyTrials); code != http.StatusBadRequest ||
		!bytes.Contains(data, []byte(limit)) {
		t.Fatalf("over-limit trials: %d %s, want 400 naming %s", code, data, limit)
	}
	huge := `{"name":"figure5","seeds":[` + strings.Repeat("1,", maxSubmitBytes/2) + `1]}`
	if code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", code, data)
	}
	code, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns", "")
	var list api.RunList
	if err := json.Unmarshal(data, &list); code != http.StatusOK || err != nil || len(list.Campaigns) != 0 {
		t.Fatalf("refused submissions registered runs: %d %s", code, data)
	}
}

func TestSubmitRunFetchAndCachedResubmit(t *testing.T) {
	ts := testService(t)

	st := submitAndWait(t, ts, micro)
	if st.Status != "done" {
		t.Fatalf("first run: %+v", st)
	}
	if st.CacheHit != 0 || st.Done != st.Jobs {
		t.Fatalf("first run should be all misses: %+v", st)
	}

	code, res1 := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK || !bytes.Contains(res1, []byte(`"key"`)) {
		t.Fatalf("results: %d %s", code, res1)
	}
	code, csv := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results?format=csv", "")
	if code != http.StatusOK || !bytes.HasPrefix(csv, []byte("key,metric,")) {
		t.Fatalf("csv results: %d %s", code, csv)
	}

	// Re-submitting the same campaign must complete from cache alone
	// and emit byte-identical rows.
	st2 := submitAndWait(t, ts, micro)
	if st2.Status != "done" || st2.CacheHit != st2.Jobs {
		t.Fatalf("resubmit not fully cached: %+v", st2)
	}
	_, res2 := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st2.ID+"/results", "")
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cached rerun rows differ:\n%s\nvs\n%s", res1, res2)
	}

	// The listing shows both campaigns in submission order.
	code, data := do(t, http.MethodGet, ts.URL+"/v1/campaigns", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Campaigns []api.RunStatus `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != st.ID || list.Campaigns[1].ID != st2.ID {
		t.Fatalf("list: %s", data)
	}
}

func TestResultsBeforeDoneConflicts(t *testing.T) {
	ts := testService(t)
	// Submit a long campaign and immediately ask for results.
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"name":"figure6","scale":"quick","workloads":["apache"],"seeds":[11]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var st api.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if code, _ = do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", ""); code != http.StatusConflict {
		t.Fatalf("results while running: %d, want 409", code)
	}
	// Cancel it and confirm the terminal state is visible.
	if code, _ = do(t, http.MethodPost, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		_, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "canceled" || st.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServiceStatusReportsCacheCounters(t *testing.T) {
	ts := testService(t)
	// Cold run fills the cache; warm rerun hits it.
	if st := submitAndWait(t, ts, micro); st.Status != "done" {
		t.Fatalf("first run: %+v", st)
	}
	if st := submitAndWait(t, ts, micro); st.Status != "done" {
		t.Fatalf("second run: %+v", st)
	}
	code, data := do(t, http.MethodGet, ts.URL+"/v1/status", "")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, data)
	}
	var st struct {
		Status    string `json:"status"`
		UptimeMS  int64  `json:"uptime_ms"`
		Campaigns struct {
			Total    int            `json:"total"`
			ByStatus map[string]int `json:"by_status"`
		} `json:"campaigns"`
		Cache *struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Stores uint64 `json:"stores"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status body: %v\n%s", err, data)
	}
	if st.Status != "ok" || st.Campaigns.Total != 2 || st.Campaigns.ByStatus["done"] != 2 {
		t.Fatalf("service status wrong: %s", data)
	}
	if st.Cache == nil || st.Cache.Misses == 0 || st.Cache.Hits == 0 || st.Cache.Stores != st.Cache.Misses {
		t.Fatalf("cache counters wrong: %s", data)
	}
}

// TestFleetSubmitMatchesLocal: a campaign submitted to a fleet-backed
// service shards across its workers, and a forced-local resubmission
// resumes entirely from the shared cache with byte-identical rows —
// the mixed local/remote guarantee end to end through the HTTP API.
func TestFleetSubmitMatchesLocal(t *testing.T) {
	var workers []string
	for _, name := range []string{"w1", "w2"} {
		w := campaign.NewWorker(campaign.WorkerOptions{Name: name, Capacity: 2})
		wts := httptest.NewServer(w.Handler())
		t.Cleanup(func() {
			w.Stop()
			wts.Close()
		})
		workers = append(workers, wts.URL)
	}

	cache, err := campaign.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(context.Background(), cache, 2, 2)
	srv.fleet = workers
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	st := submitAndWait(t, ts, micro)
	if st.Status != "done" || st.Workers != 2 {
		t.Fatalf("fleet run: %+v", st)
	}
	if st.CacheHit != 0 || st.Done != st.Jobs {
		t.Fatalf("fleet cold run should be all misses: %+v", st)
	}
	code, res1 := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}

	// Forced-local resubmission: same jobs, so the fleet's results
	// serve it fully from cache, byte for byte.
	st2 := submitAndWait(t, ts, `{"local":true,`+micro[1:])
	if st2.Status != "done" || st2.Workers != 0 {
		t.Fatalf("local resubmit: %+v", st2)
	}
	if st2.CacheHit != st2.Jobs {
		t.Fatalf("local resubmit should be fully cached: %+v", st2)
	}
	_, res2 := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st2.ID+"/results", "")
	if !bytes.Equal(res1, res2) {
		t.Fatalf("fleet and local rows differ:\n%s\nvs\n%s", res1, res2)
	}
}

// TestFinishClassifiesWrappedCancellation: a cancellation that arrives
// wrapped (fmt.Errorf %w from a future engine change, or context.Cause)
// must land the run in "canceled", not "failed".
func TestFinishClassifiesWrappedCancellation(t *testing.T) {
	for _, err := range []error{
		context.Canceled,
		fmt.Errorf("campaign: worker pool: %w", context.Canceled),
	} {
		r := &run{status: "running"}
		r.finish(nil, nil, err)
		if r.status != "canceled" {
			t.Errorf("finish(%v): status %q, want canceled", err, r.status)
		}
	}
	r := &run{status: "running"}
	r.finish(nil, nil, fmt.Errorf("disk full"))
	if r.status != "failed" {
		t.Errorf("finish(real error): status %q, want failed", r.status)
	}
}

// TestCancelMidCampaign: cancelling a running campaign lands it in
// "canceled" (not "failed") and its partial result set is never
// summarized — the results endpoint keeps refusing with a conflict.
func TestCancelMidCampaign(t *testing.T) {
	ts := testService(t)
	// Default scale: slow enough that the cancel lands mid-run.
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"name":"figure5","workloads":["apache"],"seeds":[11,23,31]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var st api.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if code, _ = do(t, http.MethodPost, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", ""); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		_, data = do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "queued" && st.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Status != "canceled" {
		t.Fatalf("status %q, want canceled (error %q)", st.Status, st.Error)
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", ""); code != http.StatusConflict {
		t.Fatalf("results of canceled run: %d, want 409", code)
	}
}

// TestZeroWarmupOverride: an explicit zero warmup must be applied (the
// engine supports zero-warmup campaigns), while zero measure and
// timeslice are rejected.
func TestZeroWarmupOverride(t *testing.T) {
	u := func(v uint64) *uint64 { return &v }
	sc, err := scaleOf(api.SubmitRequest{Scale: "quick", Warmup: u(0)})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Warmup != 0 {
		t.Fatalf("explicit zero warmup ignored: %+v", sc)
	}
	if sc.Measure != campaign.QuickScale().Measure {
		t.Fatalf("unset measure should keep the preset: %+v", sc)
	}
	if _, err := scaleOf(api.SubmitRequest{Measure: u(0)}); err == nil {
		t.Fatal("zero measure accepted")
	}
	if _, err := scaleOf(api.SubmitRequest{Timeslice: u(0)}); err == nil {
		t.Fatal("zero timeslice accepted")
	}

	// End to end: a zero-warmup submission completes.
	ts := testService(t)
	st := submitAndWait(t, ts, `{"name":"table2","scale":"quick",`+
		`"warmup":0,"measure":60000,"timeslice":20000,`+
		`"workloads":["apache"],"seeds":[11]}`)
	if st.Status != "done" {
		t.Fatalf("zero-warmup campaign: %+v", st)
	}
}

// TestRetentionCapEvictsOldestCompleted: a long-lived service must not
// grow its runs map without bound; completed runs beyond the retention
// cap are evicted oldest-first and counted in GET /status.
func TestRetentionCapEvictsOldestCompleted(t *testing.T) {
	cache, err := campaign.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(context.Background(), cache, 2, 2)
	srv.retain = 1
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var last api.RunStatus
	for i := 0; i < 3; i++ {
		last = submitAndWait(t, ts, micro)
		if last.Status != "done" {
			t.Fatalf("run %d: %+v", i, last)
		}
	}

	code, data := do(t, http.MethodGet, ts.URL+"/v1/campaigns", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Campaigns []api.RunStatus `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != last.ID {
		t.Fatalf("retention kept wrong runs: %s", data)
	}

	_, data = do(t, http.MethodGet, ts.URL+"/v1/status", "")
	var st struct {
		Campaigns struct {
			Total   int    `json:"total"`
			Evicted uint64 `json:"evicted"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status body: %v\n%s", err, data)
	}
	if st.Campaigns.Total != 1 || st.Campaigns.Evicted != 2 {
		t.Fatalf("status after eviction: %s", data)
	}
}

func TestCatalogListsAxes(t *testing.T) {
	ts := testService(t)
	code, data := do(t, http.MethodGet, ts.URL+"/v1/catalog", "")
	if code != http.StatusOK {
		t.Fatalf("catalog: %d", code)
	}
	var cat struct {
		Names     []string   `json:"names"`
		Campaigns []api.Axes `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatalf("catalog body: %v\n%s", err, data)
	}
	if len(cat.Names) == 0 || len(cat.Campaigns) != len(cat.Names) {
		t.Fatalf("catalog incomplete: %s", data)
	}
	found := false
	for _, ax := range cat.Campaigns {
		if ax.Name == "relia" {
			found = true
			if !ax.Reliability || len(ax.Kinds) == 0 || len(ax.Variants) == 0 || ax.Jobs == 0 {
				t.Fatalf("relia axes incomplete: %+v", ax)
			}
		}
	}
	if !found {
		t.Fatal("relia campaign missing from catalog")
	}
}

// TestReliaCampaignViaService: the reliability sweep completes through
// the HTTP front end and its results carry coverage rows with Wilson
// bounds and the MTTF/FIT rollup.
func TestReliaCampaignViaService(t *testing.T) {
	ts := testService(t)
	st := submitAndWait(t, ts, `{"name":"relia","scale":"quick","workloads":["apache"],"seeds":[11]}`)
	if st.Status != "done" {
		t.Fatalf("relia campaign: %+v", st)
	}
	code, res := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	for _, want := range []string{"relia:coverage:", "relia:fit_sdc", "relia:mttf_h"} {
		if !bytes.Contains(res, []byte(want)) {
			t.Fatalf("results missing %q:\n%.2000s", want, res)
		}
	}
	// Byte-identical on a cache-warm resubmission.
	st2 := submitAndWait(t, ts, `{"name":"relia","scale":"quick","workloads":["apache"],"seeds":[11]}`)
	if st2.Status != "done" || st2.CacheHit != st2.Jobs {
		t.Fatalf("resubmit not fully cached: %+v", st2)
	}
	_, res2 := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st2.ID+"/results", "")
	if !bytes.Equal(res, res2) {
		t.Fatal("relia results not byte-identical across cache-warm reruns")
	}
}

// TestCatalogExposesPolicyAxis: GET /catalog lists the registered mode
// policies and the policy campaign's swept axis.
func TestCatalogExposesPolicyAxis(t *testing.T) {
	ts := testService(t)
	code, data := do(t, http.MethodGet, ts.URL+"/v1/catalog", "")
	if code != http.StatusOK {
		t.Fatalf("catalog: %d", code)
	}
	var doc struct {
		Policies  []string   `json:"policies"`
		Campaigns []api.Axes `json:"campaigns"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("catalog body: %v\n%s", err, data)
	}
	for _, want := range mode.Names() {
		found := false
		for _, p := range doc.Policies {
			found = found || p == want
		}
		if !found {
			t.Fatalf("catalog policies %v missing %q", doc.Policies, want)
		}
	}
	for _, ax := range doc.Campaigns {
		if ax.Name != "policy" {
			continue
		}
		if len(ax.Policies) < 4 { // static + three dynamic policies
			t.Fatalf("policy campaign axes incomplete: %+v", ax)
		}
		return
	}
	t.Fatal("policy campaign missing from catalog")
}

// TestSubmitRejectsUnknownPolicy: a submission naming an unregistered
// policy answers 400 and the error lists the valid names.
func TestSubmitRejectsUnknownPolicy(t *testing.T) {
	ts := testService(t)
	code, data := do(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"name":"table2","policies":["warp-drive"]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown policy: code %d, want 400 (%s)", code, data)
	}
	for _, want := range mode.Names() {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("error should list valid policy %q: %s", want, data)
		}
	}
}

// TestSubmitWithPolicyAxis: the policies override multiplies the
// campaign's cells and the dynamic cells land under pol= keys.
func TestSubmitWithPolicyAxis(t *testing.T) {
	ts := testService(t)
	body := `{"name":"table2","scale":"quick",` +
		`"warmup":30000,"measure":60000,"timeslice":20000,` +
		`"workloads":["apache"],"seeds":[11],` +
		`"policies":["static","duty-cycle"]}`
	st := submitAndWait(t, ts, body)
	if st.Status != "done" {
		t.Fatalf("policy-axis campaign: %+v", st)
	}
	if st.Jobs != 2 {
		t.Fatalf("expected 2 jobs (static + duty-cycle), got %d", st.Jobs)
	}
	code, res := do(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/results", "")
	if code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	if !bytes.Contains(res, []byte("pol=duty-cycle")) {
		t.Fatalf("dynamic cell missing from rows: %s", res)
	}
}
