package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the engine. Spans stay in memory until the pass ends.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int // index of the span that caused this one, -1 for a root
	Run    int // spans of one job or one probe repetition share it
	Lane   int // client or goroutine, the Chrome-trace tid
}

// recorder collects spans. A nil recorder records nothing, which is the
// untraced pass.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent, run, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Run: run, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span name and run, the spans' durations minus
// the part their children cover. Children of one span never overlap each
// other (a parent issues its calls in sequence), so that part is their
// sum.
func (r *recorder) selfTimes() map[string]map[int]time.Duration {
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[int]time.Duration{}
	for i, s := range r.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]time.Duration{}
		}
		out[s.Name][s.Run] += s.End - s.Start - covered[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "run": s.Run},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
