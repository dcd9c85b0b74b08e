package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// bigResultSpec is a file-backed CSV job whose inline csv sink answers
// about as many bytes as the file holds; k makes tenants distinct plans.
func bigResultSpec(path string, k int) string {
	return fmt.Sprintf(`{"v":1,
		"source": {"kind":"csv","path":%q},
		"ops": [{"kind":"withColumn","col":"t","udf":{"code":"lambda x: x['id'] + k","globals":{"k":%d}}}],
		"sink": {"kind":"csv"},
		"options": {"executors": 1}}`, path, k)
}

// writeBigCSV writes rows records of about 128 bytes each.
func writeBigCSV(t *testing.T, rows int) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("id,s\n")
	pad := strings.Repeat("x", 120)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%s\n", i, pad)
	}
	path := filepath.Join(t.TempDir(), "big.csv")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// resultCSV decodes a job reply and returns its inline CSV, failing the
// test unless the job is done and carries a result.
func resultCSV(t *testing.T, code int, raw []byte) string {
	t.Helper()
	st := decodeStatus(t, raw)
	if code != http.StatusOK || st.State != StateDone || st.ResultExpired || st.Result == nil {
		t.Errorf("job %s answered %d, state %s, expired %v, result present %v",
			st.ID, code, st.State, st.ResultExpired, st.Result != nil)
		return ""
	}
	return st.Result.CSV
}

// TestSyncRepliesCarryResultsUnderRetention has two tenants submit
// results of over half the byte budget concurrently, so every retire
// drops every older result: every synchronous reply must still carry
// its whole result, however the other tenant's jobs retire around it.
func TestSyncRepliesCarryResultsUnderRetention(t *testing.T) {
	const rows, perTenant = maxRetainedResultBytes/2/128 + 1000, 2
	s, hs := newTestServer(t, Config{MaxConcurrent: 2})
	path := writeBigCSV(t, rows)
	var wg sync.WaitGroup
	for tenant := 1; tenant <= 2; tenant++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := ""
			for i := 0; i < perTenant; i++ {
				code, raw := post(t, hs.URL+"/v1/jobs", bigResultSpec(path, tenant))
				csv := resultCSV(t, code, raw)
				if n := strings.Count(csv, "\n"); n != rows+1 {
					t.Errorf("tenant %d job %d: result has %d lines, want %d", tenant, i, n, rows+1)
					return
				}
				if want == "" {
					want = csv
				} else if csv != want {
					t.Errorf("tenant %d job %d: result differs from the tenant's first", tenant, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.stats.ResultsExpired.Load() == 0 {
		t.Fatal("no result expired: the test never pushed the ring past its budget")
	}
}

// retireWatch is a ResponseWriter that notes, when the reply's header
// is written, how many jobs are still live.
type retireWatch struct {
	*httptest.ResponseRecorder
	jobs *jobTable
	live int
}

func (w *retireWatch) WriteHeader(code int) {
	w.jobs.mu.Lock()
	w.live = len(w.jobs.live)
	w.jobs.mu.Unlock()
	w.ResponseRecorder.WriteHeader(code)
}

// TestSyncReplyPrecedesRetire pins the order the test above relies on:
// a synchronous job is still live, not retired, when its reply is
// written, so no retire can drop its result first.
func TestSyncReplyPrecedesRetire(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := &retireWatch{ResponseRecorder: httptest.NewRecorder(), jobs: s.jobs}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(smallSpec(1))))
	if w.Code != http.StatusOK || w.live != 1 {
		t.Fatalf("reply %d written with %d live jobs, want 200 with its own job live", w.Code, w.live)
	}
	if st := decodeStatus(t, w.Body.Bytes()); st.Result == nil || s.jobs.get(st.ID) == nil || len(s.jobs.live) != 0 {
		t.Fatalf("job %s: result present %v, %d jobs live after the reply", st.ID, st.Result != nil, len(s.jobs.live))
	}
}

// TestExpiredAsyncResult finishes an async job, pushes the ring past its
// byte budget with later jobs, and checks the old job answers its status
// flagged result_expired and without a result, and that the gauge stays
// within the budget plus one result.
func TestExpiredAsyncResult(t *testing.T) {
	const rows = 16_000
	s, hs := newTestServer(t, Config{MaxConcurrent: 1})
	path := writeBigCSV(t, rows)
	spec := bigResultSpec(path, 1)

	code, raw := post(t, hs.URL+"/v1/jobs?wait=false", spec)
	if code != http.StatusAccepted {
		t.Fatalf("async submit answered %d: %s", code, raw)
	}
	id := decodeStatus(t, raw).ID
	get := func() (int, []byte) {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.Bytes()
	}
	members := func(raw []byte) map[string]json.RawMessage {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		code, raw = get()
		if st := decodeStatus(t, raw); st.State == StateDone {
			resultCSV(t, code, raw)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async job never finished: %s", raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resultBytes := len(members(raw)["result"]) // the encoded result, as retained
	for i := 0; s.stats.ResultsExpired.Load() == 0; i++ {
		if i == 2*maxRetainedResultBytes/resultBytes {
			t.Fatalf("%d more jobs expired no result", i)
		}
		code, raw := post(t, hs.URL+"/v1/jobs", spec)
		resultCSV(t, code, raw)
	}

	code, raw = get()
	st := decodeStatus(t, raw)
	if code != http.StatusOK || st.State != StateDone || !st.ResultExpired || st.Result != nil {
		t.Fatalf("expired job answered %d: %s", code, raw)
	}
	if _, ok := members(raw)["result"]; ok || st.DurationNS <= 0 || st.TraceID == "" {
		t.Fatalf("expired job lost its status or kept a result member: %s", raw)
	}
	if tr, err := http.Get(hs.URL + "/v1/jobs/" + id + "/trace"); err != nil || tr.StatusCode != http.StatusOK {
		t.Fatalf("expired job's trace: %v %v", tr, err)
	} else {
		tr.Body.Close()
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m bytes.Buffer
	m.ReadFrom(resp.Body)
	var gauge int64 = -1
	for _, line := range strings.Split(m.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "tuplex_service_retained_result_bytes "); ok {
			gauge, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if bound := int64(maxRetainedResultBytes + resultBytes); gauge < 0 || gauge > bound {
		t.Fatalf("retained result bytes gauge %d, bound %d", gauge, bound)
	}
}
