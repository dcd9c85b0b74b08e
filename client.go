package tuplex

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/gotuplex/tuplex/internal/spec"
)

// Client talks to a tuplex-serve daemon's /v1/jobs API. The zero value
// is unusable; construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:5005").
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
}

// Job is one submitted pipeline's lifecycle record, as reported by the
// service: queued → running → done | failed | canceled.
type Job struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	CacheHit    bool   `json:"cache_hit"`
	Fingerprint string `json:"fingerprint"`
	// TraceID is the correlation id threading this job through the
	// service's logs, metrics exemplars and exported trace — the id the
	// client sent (SubmitTraced) or a server-generated one.
	TraceID string `json:"trace_id,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	DurationNS  int64     `json:"duration_ns"`

	Error string `json:"error,omitempty"`
	// Events is the service flight recorder's tail for this job,
	// attached automatically when the job failed.
	Events []JobEvent `json:"events,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// JobEvent is one service lifecycle event (admit, compile, cache_hit,
// execute, done, failed, ...) from the daemon's flight recorder.
type JobEvent struct {
	// AtNS is the event time in nanoseconds since the daemon started.
	AtNS int64 `json:"at_ns"`
	// Kind names the lifecycle step.
	Kind string `json:"kind"`
	// Job / TraceID tie the event to a submission.
	Job     string `json:"job,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// DurNS carries the step's duration where one applies (queue wait
	// for admit, end-to-end latency for done/failed).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Detail is a short qualifier (shed reason, error class).
	Detail string `json:"detail,omitempty"`
}

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool {
	return j.State == "done" || j.State == "failed" || j.State == "canceled"
}

// JobResult is a finished job's output: rows for collect/take sinks
// (possibly truncated by the server's row cap), rendered CSV or its
// output path for csv sinks, the accumulator for aggregate sinks.
type JobResult struct {
	Columns   []string `json:"columns,omitempty"`
	Rows      [][]any  `json:"rows,omitempty"`
	Value     any      `json:"value,omitempty"`
	CSV       string   `json:"csv,omitempty"`
	CSVPath   string   `json:"csv_path,omitempty"`
	Truncated bool     `json:"truncated,omitempty"`

	InputRows  int64 `json:"input_rows"`
	OutputRows int64 `json:"output_rows"`
	FailedRows int64 `json:"failed_rows"`
}

// ServiceError is a non-OK answer from the daemon. StatusCode
// distinguishes admission rejections (429 over capacity, 413 over
// budget, 503 draining) from job failures (500) and bad requests (400).
type ServiceError struct {
	StatusCode int
	Message    string
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("tuplex service: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Submit runs the plan synchronously: it returns once the job reaches a
// terminal state, with the result inline. A failed or canceled job
// returns both the Job record and a *ServiceError. Every submission
// carries a generated trace id (X-Tuplex-Trace) so the job can be
// followed through the daemon's metrics and exported trace; use
// SubmitTraced to thread your own.
func (c *Client) Submit(ctx context.Context, p *Plan) (*Job, error) {
	return c.submit(ctx, p, false, "")
}

// SubmitTraced is Submit with a caller-chosen trace id (letters,
// digits, "-", "_", "." — up to 64 chars; anything else is replaced by
// a server-generated id).
func (c *Client) SubmitTraced(ctx context.Context, p *Plan, traceID string) (*Job, error) {
	return c.submit(ctx, p, false, traceID)
}

// SubmitAsync enqueues the plan and returns immediately with the job id
// (HTTP 202); poll with Job until Done.
func (c *Client) SubmitAsync(ctx context.Context, p *Plan) (*Job, error) {
	return c.submit(ctx, p, true, "")
}

func (c *Client) submit(ctx context.Context, p *Plan, async bool, traceID string) (*Job, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	url := c.base + "/v1/jobs"
	if async {
		url += "?wait=false"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID == "" {
		traceID = newClientTraceID()
	}
	req.Header.Set("X-Tuplex-Trace", traceID)
	return c.do(req)
}

// Trace fetches a finished job's span tree: the service-side phases
// (admission queue wait, plan-cache lookup) with the engine's own spans
// — stages, tasks, routing ledger — nested beneath them.
func (c *Client) Trace(ctx context.Context, id string) (*Trace, error) {
	raw, err := c.traceRaw(ctx, id, "native")
	if err != nil {
		return nil, err
	}
	return ParseTrace(raw)
}

// TraceChrome fetches a finished job's trace as a Chrome trace-event
// JSON document, ready to drop into chrome://tracing or
// https://ui.perfetto.dev.
func (c *Client) TraceChrome(ctx context.Context, id string) ([]byte, error) {
	return c.traceRaw(ctx, id, "chrome")
}

func (c *Client) traceRaw(ctx context.Context, id, format string) ([]byte, error) {
	url := c.base + "/v1/jobs/" + id + "/trace?format=" + format
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp.StatusCode, raw)
	}
	return raw, nil
}

// newClientTraceID generates a 16-hex-char submission trace id.
func newClientTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Job fetches one job's current state by id.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// Jobs lists every job the daemon knows about (live plus the retained
// finished ring), without result payloads.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp.StatusCode, raw)
	}
	var listing struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &listing); err != nil {
		return nil, fmt.Errorf("tuplex service: decoding listing: %w", err)
	}
	return listing.Jobs, nil
}

// Cancel requests cancellation of a running job and returns its state
// afterwards (a finished job is unaffected and reports its terminal
// state).
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// Wait polls a job until it reaches a terminal state (use after
// SubmitAsync). The poll interval backs off from 5ms to 250ms; ctx
// bounds the overall wait.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	delay := 5 * time.Millisecond
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.Done() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, context.Cause(ctx)
		case <-time.After(delay):
		}
		if delay < 250*time.Millisecond {
			delay *= 2
		}
	}
}

// do executes a request whose successful answers carry a Job document.
// Answers that carry a job alongside an error status (failed/canceled
// jobs) return both.
func (c *Client) do(req *http.Request) (*Job, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Job replies carry their length: read one into one buffer.
	var body bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		body.Grow(int(min(n, 64<<20)) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	raw := body.Bytes()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		j, err := decodeJob(raw)
		if err != nil {
			return nil, fmt.Errorf("tuplex service: decoding job: %w", err)
		}
		return j, nil
	case http.StatusInternalServerError, http.StatusGatewayTimeout:
		// The body is still a job document for sync submissions that
		// failed or were canceled.
		if j, err := decodeJob(raw); err == nil && j.ID != "" {
			return j, decodeError(resp.StatusCode, raw)
		}
		return nil, decodeError(resp.StatusCode, raw)
	default:
		return nil, decodeError(resp.StatusCode, raw)
	}
}

// decodeJob decodes a job document as json.Unmarshal does, and fails
// exactly when it fails, but without encoding/json ever scanning
// result.rows: the document is split at the rows array, the rest is
// unmarshaled with the array replaced by null, and spec.DecodeRows reads
// the array.
func decodeJob(raw []byte) (*Job, error) {
	var j Job
	start, end, ok := spec.RowsSpan(raw)
	if !ok {
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, err
		}
		return &j, nil
	}
	rest := make([]byte, 0, len(raw)-(end-start)+len("null"))
	rest = append(append(append(rest, raw[:start]...), "null"...), raw[end:]...)
	if err := json.Unmarshal(rest, &j); err != nil {
		return nil, err
	}
	rows, err := spec.DecodeRows(raw[start:end])
	if err != nil {
		return nil, err
	}
	j.Result.Rows = rows
	return &j, nil
}

func decodeError(code int, raw []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &e); err == nil && e.Error != "" {
		msg = e.Error
	} else {
		var j Job
		if err := json.Unmarshal(raw, &j); err == nil && j.Error != "" {
			msg = j.Error
		}
	}
	return &ServiceError{StatusCode: code, Message: msg}
}
