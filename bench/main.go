// Command bench is the repository's benchmark: five workloads (three
// batch pipelines over files on disk, two traffic mixes against an
// in-process tuplex-serve), end-to-end metrics from an untraced pass and
// per-layer metrics from a traced pass, every output checked against an
// oracle that is not the engine. See README.md.
//
// The parent process generates inputs and oracles (timed as setup_s)
// and runs each pass in a child process of its own, so heap state and
// peak RSS belong to the measured work alone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	Workload  string
	Seed      uint64
	Seconds   float64
	Trace     string // "0" untraced pass, "1" traced pass, "both"
	Scale     float64
	Setups    int
	Dir       string
	SelfCheck bool
	Child     bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed of the input generators and the request schedules")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "length of one measured pass")
	fs.StringVar(&cfg.Trace, "trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
	fs.Float64Var(&cfg.Scale, "scale", 1, "input size relative to full scale")
	fs.IntVar(&cfg.Setups, "setups", 3, "times a run sets up; setup_s is the median")
	fs.StringVar(&cfg.Dir, "dir", ".bench_build", "directory for generated inputs (work/) and results (out/)")
	fs.BoolVar(&cfg.SelfCheck, "selfcheck", false, "run everything twice and compare the two runs against the bounds")
	fs.BoolVar(&cfg.Child, "child", false, "internal: run one pass over inputs already in -dir")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.Trace != "0" && cfg.Trace != "1" && cfg.Trace != "both" {
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", cfg.Trace)
		return 2
	}
	if cfg.Workload != "all" && findWorkload(cfg.Workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	if cfg.Seconds <= 0 || cfg.Scale <= 0 || cfg.Setups < 1 {
		fmt.Fprintln(stderr, "bench: -seconds, -scale and -setups must be positive")
		return 2
	}
	var err error
	ok := true
	switch {
	case cfg.Child:
		err = runChild(cfg, stdout)
	case cfg.SelfCheck:
		ok, err = selfCheck(cfg, stdout, stderr)
	default:
		var rep *report
		if rep, err = runAll(cfg, stdout, stderr, "result.json"); err == nil {
			ok = rep.correct()
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single-workload, single-pass run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Why         string                 `json:"why"`
	Inputs      map[string]string      `json:"input_sha256"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	Correct     bool                   `json:"correct"`
	SetupS      []float64              `json:"setup_s_samples"`
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	Jobs        *summary               `json:"job_ms,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	TracedJobs  *summary               `json:"traced_job_ms,omitempty"`
	// Shares is each probe span's median self time as a share of the
	// untraced job_p50_ms: how much of a job the layer can account for.
	Shares    map[string]float64 `json:"layer_share_of_job,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// report is result.json.
type report struct {
	Seed       uint64                     `json:"seed"`
	Scale      float64                    `json:"scale"`
	Seconds    float64                    `json:"seconds"`
	NProc      int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	Commit     string                     `json:"commit"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func procs() int { return min(runtime.NumCPU(), 4) }

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAll sets up and measures the selected workloads, prints every
// metric, and writes the report under <dir>/out.
func runAll(cfg config, stdout, stderr io.Writer, resultName string) (*report, error) {
	rep := &report{
		Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds,
		NProc: runtime.NumCPU(), GoMaxProcs: procs(), GoVersion: runtime.Version(), Commit: commit(),
		Workloads: map[string]*workloadReport{},
	}
	fmt.Fprintf(stdout, "# tuplex bench seed=%d scale=%g seconds=%g trace=%s nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		rep.Seed, rep.Scale, rep.Seconds, cfg.Trace, rep.NProc, rep.GoMaxProcs, rep.GoVersion, rep.Commit)
	outDir := filepath.Join(cfg.Dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	selected := workloads
	if cfg.Workload != "all" {
		selected = []*workload{findWorkload(cfg.Workload)}
	}
	for _, w := range selected {
		wr, err := runWorkload(cfg, w, outDir, stdout, stderr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Workloads[w.Name] = wr
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, resultName), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	if len(selected) == 1 && cfg.Trace != "both" {
		wr := rep.Workloads[selected[0].Name]
		line := contractLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.EndToEnd}
		if cfg.Trace == "1" {
			line.Metrics = wr.PerLayer
		}
		raw, err := json.Marshal(line)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	return rep, nil
}

// runWorkload generates one workload's inputs and oracle (several
// times, for setup_s), then runs the requested passes, each in a child
// process.
func runWorkload(cfg config, w *workload, outDir string, stdout, stderr io.Writer) (*workloadReport, error) {
	work, err := filepath.Abs(filepath.Join(cfg.Dir, "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	wr := &workloadReport{Why: w.Why, Inputs: map[string]string{}, Correct: true}
	var inputs []string
	for i := 0; i < cfg.Setups; i++ {
		t0 := time.Now()
		if inputs, err = w.setup(work, cfg.Seed, cfg.Scale); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		wr.SetupS = append(wr.SetupS, time.Since(t0).Seconds())
	}
	fmt.Fprintf(stdout, "# workload %s: %s\n", w.Name, w.Why)
	for _, path := range inputs {
		sum, err := fileSHA256(path)
		if err != nil {
			return nil, err
		}
		wr.Inputs[filepath.Base(path)] = sum
		fmt.Fprintf(stdout, "# input %s %s sha256=%s\n", w.Name, filepath.Base(path), sum)
	}

	for _, pass := range []string{"0", "1"} {
		if cfg.Trace != "both" && cfg.Trace != pass {
			continue
		}
		res, err := spawnChild(cfg, w, pass, work, outDir, stderr)
		if err != nil {
			return nil, err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Correct = wr.Correct && res.Correct
		if pass == "0" {
			res.Metrics["setup_s"] = median(wr.SetupS) + median(res.OpenS)
			wr.EndToEnd = printMetrics(stdout, w.Name, endToEnd, res.Metrics)
			wr.Jobs = &res.Jobs
			fmt.Fprintf(stdout, "# timing %s job_ms median=%.4f q1=%.4f q3=%.4f p95=%.4f p99=%.4f max=%.4f n=%d\n",
				w.Name, res.Jobs.Median, res.Jobs.Q1, res.Jobs.Q3, res.Jobs.P95, res.Jobs.P99, res.Jobs.Max, res.Jobs.N)
		} else {
			wr.PerLayer = printMetrics(stdout, w.Name, perLayer, res.Metrics)
			wr.TracedJobs, wr.Shares, wr.TraceFile = &res.Jobs, res.Shares, res.TraceFile
			for _, name := range sortedKeys(res.Shares) {
				fmt.Fprintf(stdout, "# share %s %s %.4f of job_p50_ms\n", w.Name, name, res.Shares[name])
			}
		}
	}
	if wr.Attempted > 0 {
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Fprintf(stdout, "# checked %s attempted=%d failed=%d failed_share=%g correct=%v\n",
		w.Name, wr.Attempted, wr.Failed, wr.FailedShare, wr.Correct)
	return wr, nil
}

// printMetrics prints each metric of defs once, by name and with its
// unit, and returns them in report form.
func printMetrics(stdout io.Writer, workload string, defs []metricDef, values map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(stdout, "metric %s %s %.6g %s\n", workload, d.Name, values[d.Name], d.Unit)
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spawnChild runs one pass of one workload in a fresh process and
// waits for it; the child's last stdout line is its result.
func spawnChild(cfg config, w *workload, pass, work, outDir string, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child",
		"-workload", w.Name,
		"-seed", fmt.Sprint(cfg.Seed),
		"-seconds", fmt.Sprint(cfg.Seconds),
		"-setups", fmt.Sprint(cfg.Setups),
		"-trace", pass,
		"-dir", work)
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass %s: child: %w", pass, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("pass %s: child result: %w", pass, err)
	}
	if res.TraceFile != "" {
		// Kept beside the report, and named relative to it.
		kept := w.Name + ".trace.json"
		if err := os.Rename(res.TraceFile, filepath.Join(outDir, kept)); err != nil {
			return nil, err
		}
		res.TraceFile = kept
	}
	return &res, nil
}

// selfCheck is the A/A mode: the whole set twice on the same build. It
// prints each end-to-end metric's relative difference next to its bound
// and reports whether every one stayed inside.
func selfCheck(cfg config, stdout, stderr io.Writer) (bool, error) {
	var reps [2]*report
	for i := range reps {
		fmt.Fprintf(stdout, "# selfcheck run %d of 2\n", i+1)
		rep, err := runAll(cfg, stdout, stderr, fmt.Sprintf("result.%d.json", i+1))
		if err != nil {
			return false, err
		}
		reps[i] = rep
	}
	ok := reps[0].correct() && reps[1].correct()
	for _, w := range workloads {
		a, b := reps[0].Workloads[w.Name], reps[1].Workloads[w.Name]
		if a == nil || a.EndToEnd == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			diff := (vb - va) / va
			verdict := "ok"
			if diff > d.Bound || diff < -d.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(stdout, "selfcheck %s %s first=%.6g second=%.6g diff=%+.4f bound=%.2f %s\n",
				w.Name, d.Name, va, vb, diff, d.Bound, verdict)
		}
	}
	return ok, nil
}
