package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// childResult is what one pass hands back to the parent, as the last
// line of the child's standard output.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	Jobs      summary            `json:"jobs_ms"`
	OpenS     []float64          `json:"open_s"`
	Shares    map[string]float64 `json:"shares,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// window is the outcome of one closed-loop stretch of jobs.
type window struct {
	lat       []float64 // ms, checked jobs only
	tracedLat []float64 // the same for jobs that ran inside a span
	attempted int
	failed    int
}

// runWindow drives the runner's clients in a closed loop until the
// deadline: each client starts its next job when its last one answered,
// and runs at least minJobs. Jobs draw their index from next, so no two
// jobs of a process share one. A failed job counts against attempted
// and contributes no latency. Given a recorder, every other job runs
// inside a span and is timed apart: traced and untraced jobs alternate,
// so drift over the window (a filling job table, a growing heap) lands
// on both alike.
func runWindow(r *runner, next *atomic.Int64, length time.Duration, minJobs int, rec *recorder) window {
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	deadline := time.Now().Add(length)
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < minJobs || time.Now().Before(deadline); done++ {
				i := int(next.Add(1) - 1)
				traced := rec != nil && i%2 == 1
				var d time.Duration
				var err error
				if traced {
					id := rec.begin("job", -1, i, c)
					d, err = r.op(c, i)
					rec.end(id)
				} else {
					d, err = r.op(c, i)
				}
				mu.Lock()
				w.attempted++
				if err != nil {
					w.failed++
					if w.failed <= 3 {
						fmt.Fprintf(os.Stderr, "bench: job %d failed: %v\n", i, err)
					}
				} else if traced {
					w.tracedLat = append(w.tracedLat, ms(d))
				} else {
					w.lat = append(w.lat, ms(d))
				}
				mu.Unlock()
				if r.freshHeap {
					debug.FreeOSMemory()
				}
			}
		}()
	}
	wg.Wait()
	return w
}

// runChild is the measured process: open the workload (several times,
// for its share of setup_s), warm up, then run one pass.
func runChild(cfg config, stdout io.Writer) error {
	runtime.GOMAXPROCS(procs())
	w := findWorkload(cfg.Workload)
	if w == nil {
		return fmt.Errorf("-child needs one workload, got %q", cfg.Workload)
	}
	res := childResult{Metrics: map[string]float64{}}
	var r *runner
	for i := 0; i < cfg.Setups; i++ {
		if r != nil && r.close != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = w.open(cfg.Dir, cfg.Seed, procs()); err != nil {
			return fmt.Errorf("open: %w", err)
		}
		res.OpenS = append(res.OpenS, time.Since(t0).Seconds())
	}
	if r.close != nil {
		defer r.close()
	}

	length := time.Duration(cfg.Seconds * float64(time.Second))
	var next atomic.Int64
	// Warm-up, discarded: one batch job, or a stretch of submissions.
	warm := runWindow(r, &next, length/10, 1, nil)
	res.Attempted, res.Failed = warm.attempted, warm.failed

	if cfg.Trace == "0" {
		pass := runWindow(r, &next, length, 2, nil)
		res.add(pass)
		res.Jobs = summarize(pass.lat)
		res.Metrics["job_p50_ms"] = res.Jobs.Median
		// Jobs per second of the time the clients spent inside jobs: the
		// generator's own time between jobs (building the next plan,
		// checking the last output) is not the system's.
		var inside float64
		for _, l := range pass.lat {
			inside += l / 1e3
		}
		res.Metrics["jobs_per_s"] = float64(len(pass.lat)) / (inside / float64(r.clients))
	} else if err := tracedPass(r, &next, length, cfg.Dir, &res); err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	if r.finish != nil {
		if err := r.finish(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: final check failed:", err)
			res.Correct = false
		}
	}
	if cfg.Trace == "0" {
		// Read last, so the peak covers everything the pass did.
		var err error
		if res.Metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", raw)
	return err
}

func (res *childResult) add(w window) {
	res.Attempted += w.attempted
	res.Failed += w.failed
}

// tracedPass spends two thirds of its time on jobs, every other one
// inside a span, and the last third on repetitions of the layer probes.
// The difference between traced and untraced jobs is what tracing
// costs.
func tracedPass(r *runner, next *atomic.Int64, length time.Duration, dir string, res *childResult) error {
	rec := newRecorder()
	pass := runWindow(r, next, length*2/3, 4, rec)
	res.add(pass)
	if len(pass.lat) == 0 || len(pass.tracedLat) == 0 {
		return fmt.Errorf("traced pass: no job succeeded")
	}
	jobs := summarize(pass.lat)
	res.Jobs = summarize(pass.tracedLat)
	m := res.Metrics
	m["bench.job_p95_ms"], m["bench.job_p99_ms"], m["bench.job_max_ms"] = jobs.P95, jobs.P99, jobs.Max
	m["bench.tracing_overhead_share"] = (res.Jobs.Median - jobs.Median) / jobs.Median
	if r.serviceStats != nil {
		hits, evictions, rejected := r.serviceStats()
		m["service.cache_hit_share"] = float64(hits) / float64(max(res.Attempted, 1))
		m["service.evictions"] = float64(evictions)
		m["service.rejected_429"] = float64(rejected)
	}

	samples := layerSamples{}
	deadline := time.Now().Add(length / 3)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		// Run ids continue where the jobs' ids stopped.
		if err := probeLayers(r, rec, rep, int(next.Load())+rep, samples); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	for name, xs := range samples {
		m[name] = median(xs)
	}
	if r.serviceStats != nil {
		// What the same work costs without the service around it.
		inProcess := m["spec.decode_ms"] + m["spec.fingerprint_ms"]
		if r.cached {
			inProcess += m["core.execute_s"] * 1e3
		} else {
			inProcess += m["plancheck.check_ms"] + m["spec.build_ms"] + m["core.compile_and_execute_s"]*1e3
		}
		m["service.overhead_ms"] = jobs.Median - inProcess
	}

	// Median self time over the probe repetitions, as a share of one job.
	res.Shares = map[string]float64{}
	for name, byRun := range rec.selfTimes() {
		if name == "job" || name == "probe" {
			continue
		}
		var self []float64
		for _, d := range byRun {
			self = append(self, ms(d))
		}
		res.Shares[name] = median(self) / jobs.Median
	}
	res.TraceFile = filepath.Join(dir, "trace.json")
	return rec.writeChrome(res.TraceFile)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
