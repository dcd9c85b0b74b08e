// Command tuplex-bench regenerates the paper's evaluation tables and
// figures (§6) on synthetic data. Each subcommand reproduces one
// table/figure; `all` runs everything and can emit the EXPERIMENTS.md
// body.
//
// Usage:
//
//	tuplex-bench [flags] <experiment>
//
// Experiments: table2 fig3 fig4 fig5 fig6 fig7 fig9 fig10 fig11 fig12 ingest join all
//
// Flags:
//
//	-scale N       scale factor over the default dataset sizes (default 1.0)
//	-small         use the fast test scale
//	-parallel N    parallelism for the multi-threaded experiments
//	-repeats N     timing repeats (best-of)
//	-markdown F    also write Markdown tables to file F (with `all`)
//	-trace DIR     trace the Tuplex runs (row-routing ledger); print each
//	               trace tree and write DIR/<id>.trace.json per experiment
//	-listen ADDR   serve /metrics, /debug/tuplex/runz and pprof while the
//	               experiments run (runs are monitored automatically)
//	-progress      live TTY progress line (stage, rows, rate, exc%, ETA)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/experiments"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

func main() {
	scaleF := flag.Float64("scale", 1.0, "scale factor over default dataset sizes")
	small := flag.Bool("small", false, "use the fast test scale")
	parallel := flag.Int("parallel", 0, "parallelism (default: min(16, NumCPU))")
	repeats := flag.Int("repeats", 1, "timing repeats (best-of)")
	markdown := flag.String("markdown", "", "write Markdown tables to this file (with 'all')")
	traceDir := flag.String("trace", "", "trace Tuplex runs and write <dir>/<id>.trace.json")
	listen := flag.String("listen", "", "introspection server address (e.g. :9090)")
	progress := flag.Bool("progress", false, "live TTY progress line for the running experiment")
	flag.Parse()

	if *listen != "" {
		srv, err := tuplex.Serve(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tuplex-bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tuplex-bench: serving /metrics, /debug/tuplex/runz, /debug/pprof on %s\n", srv.Addr())
	}
	if *progress {
		release := telemetry.EnableProcess()
		defer release()
		stop := telemetry.StartProgress(os.Stderr, telemetry.Default, 0)
		defer stop()
	}

	scale := experiments.DefaultScale()
	if *small {
		scale = scale.Small()
	}
	if *scaleF != 1.0 {
		scale.ZillowRows = int(float64(scale.ZillowRows) * *scaleF)
		scale.FlightRows = int(float64(scale.FlightRows) * *scaleF)
		scale.WeblogRows = int(float64(scale.WeblogRows) * *scaleF)
		scale.Rows311 = int(float64(scale.Rows311) * *scaleF)
		scale.Q6Rows = int(float64(scale.Q6Rows) * *scaleF)
	}
	if *parallel > 0 {
		scale.Parallelism = *parallel
	}
	if *repeats > 1 {
		scale.Repeats = *repeats
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "tuplex-bench:", err)
			os.Exit(1)
		}
		scale.TraceDir = *traceDir
	}

	which := "all"
	if flag.NArg() > 0 {
		which = strings.ToLower(flag.Arg(0))
	}

	type expFn = func(experiments.Scale, io.Writer) (*experiments.Experiment, error)
	both := func(a, b expFn) expFn {
		return func(s experiments.Scale, w io.Writer) (*experiments.Experiment, error) {
			if _, err := a(s, w); err != nil {
				return nil, err
			}
			return b(s, w)
		}
	}
	table := map[string]expFn{
		"table2": experiments.Table2,
		"fig3":   both(experiments.Fig3Single, experiments.Fig3Parallel),
		"fig3a":  experiments.Fig3Single,
		"fig3b":  experiments.Fig3Parallel,
		"fig4":   experiments.Fig4,
		"fig5":   experiments.Fig5,
		"fig6":   experiments.Fig6,
		"fig7":   experiments.Fig7,
		"fig8":   experiments.Fig9,
		"fig9":   experiments.Fig9,
		"fig10":  experiments.Fig10,
		"fig11":  experiments.Fig11,
		"fig12":  experiments.Fig12,
		"ingest": experiments.Ingest,
		"join":   experiments.Join,
	}

	if which == "all" {
		results, err := experiments.All(scale, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tuplex-bench:", err)
			os.Exit(1)
		}
		if *markdown != "" {
			f, err := os.Create(*markdown)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tuplex-bench:", err)
				os.Exit(1)
			}
			for _, e := range results {
				e.Markdown(f)
			}
			f.Close()
			fmt.Println("wrote", *markdown)
		}
		return
	}
	fn, ok := table[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "tuplex-bench: unknown experiment %q (have table2 fig3..fig12 ingest join all)\n", which)
		os.Exit(2)
	}
	if _, err := fn(scale, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tuplex-bench:", err)
		os.Exit(1)
	}
}
