package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/service"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

const (
	heavyRows     = 20_000 // rows of the file-backed Zillow job in serve.warm
	lightVariants = 32     // distinct light plans in serve.warm, all below the 64-entry cache
	mixBlock      = 5      // one job in every block of this many is heavy: an 80/20 mix
	cacheEntries  = 64     // the server's default plan-cache size; serve.cold primes this many
	maxResultRows = 10_000 // the server's inline row cap, stated so the oracle can apply it
	scheduleLen   = 4096   // entries written to schedule.txt for fingerprinting
)

// mix is splitmix64 over (seed, i): the request schedule is addressable
// by job index, so concurrent clients need no shared generator.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coldK is serve.cold's schedule: job i submits servePlan(coldK(seed, i)).
// A seeded offset plus the index, so no two jobs of a run share a plan.
// Every k stays below 2^20, which keeps servePlan's values (about
// 2e11 times k at worst) inside int64.
func coldK(seed uint64, i int) int64 {
	return int64(mix(seed, 0)&(1<<19-1)) + int64(i)
}

// Priming and the layer probes take their plans from the far end of the
// schedule, which no run's submissions reach.
const (
	primeBase = 1 << 17
	probeBase = 1 << 18
)

// warmPick is serve.warm's schedule: heavy or light, and which light
// variant. The seed picks which job of each block is the heavy one, so
// every run sees the same share of heavy jobs; with independent draws
// the share itself varied by a tenth between seeds, and jobs_per_s with
// it.
func warmPick(seed uint64, i int) (heavy bool, variant int) {
	heavy = i%mixBlock == int(mix(seed^0xb10c, i/mixBlock)%mixBlock)
	return heavy, int(mix(seed, i) % lightVariants)
}

// warmK is the plan constant of a light variant.
func warmK(seed uint64, variant int) int64 { return int64(mix(seed^0x5eed, variant) & 0xfffff) }

// servePlan is the compile-heavy 4-row plan: six withColumn UDFs of 40
// conditional terms each over tiny inline data, so sampling, inference
// and code generation dominate a cold submission. It is the "small"
// load-generator plan of internal/experiments, which does not export it.
func servePlan(k int64) (*tuplex.Plan, error) {
	c := tuplex.NewContext(tuplex.WithExecutors(1))
	d := c.Parallelize([][]any{
		{int64(1), "aa"}, {int64(2), "bb"}, {int64(3), "cc"}, {int64(4), "dd"},
	}, []string{"a", "s"})
	prev := "a"
	for i := 0; i < 6; i++ {
		col := fmt.Sprintf("c%d", i)
		var sb []byte
		sb = fmt.Appendf(sb, "lambda x: x['%s'] + k0", prev)
		for t := 0; t < 40; t++ {
			sb = fmt.Appendf(sb, " + (x['%s'] * %d if x['%s'] %% %d == 0 else %d - x['%s'])",
				prev, t+1, prev, t+2, t, prev)
		}
		d = d.WithColumn(col, tuplex.UDF(string(sb)).WithGlobal("k0", k))
		prev = col
	}
	return d.SelectColumns("a", prev, "s").Plan()
}

// servePlanRows is servePlan's output computed by hand, in the form a
// decoded reply carries it (JSON numbers are float64).
func servePlanRows(k int64) [][]any {
	out := make([][]any, 4)
	for r := range out {
		a := int64(r + 1)
		prev := a
		for i := 0; i < 6; i++ {
			next := prev + k
			for t := int64(0); t < 40; t++ {
				if prev%(t+2) == 0 {
					next += prev * (t + 1)
				} else {
					next += t - prev
				}
			}
			prev = next
		}
		out[r] = []any{float64(a), float64(prev), strings.Repeat(string(rune('a'+r)), 2)}
	}
	return out
}

func writeSchedule(dir string, entry func(i int) string) (string, error) {
	var sb strings.Builder
	for i := 0; i < scheduleLen; i++ {
		sb.WriteString(entry(i))
		sb.WriteByte('\n')
	}
	path := filepath.Join(dir, "schedule.txt")
	return path, os.WriteFile(path, []byte(sb.String()), 0o644)
}

func startServer() (*service.Server, error) {
	return service.Serve(service.Config{
		Addr:          "127.0.0.1:0",
		MaxResultRows: maxResultRows,
		Registry:      telemetry.NewRegistry(),
	})
}

// checkReply compares a finished job against its oracle rows.
func checkReply(job *tuplex.Job, want [][]any, truncated bool) error {
	switch {
	case job.State != "done":
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	case job.Result == nil:
		return fmt.Errorf("job %s carries no result", job.ID)
	case job.Result.FailedRows != 0:
		return fmt.Errorf("job %s failed %d rows", job.ID, job.Result.FailedRows)
	case job.Result.Truncated != truncated:
		return fmt.Errorf("job %s truncated=%v, oracle says %v", job.ID, job.Result.Truncated, truncated)
	case len(job.Result.Rows) != len(want):
		return fmt.Errorf("job %s returned %d rows, oracle has %d", job.ID, len(job.Result.Rows), len(want))
	}
	for i, row := range job.Result.Rows {
		if !reflect.DeepEqual(row, want[i]) {
			return fmt.Errorf("job %s row %d: got %v, oracle %v", job.ID, i, row, want[i])
		}
	}
	return nil
}

// serveRunner wires the parts both serve workloads share: one client
// per closed-loop caller, hit counting, server counters. One core is
// left to the server's collector, the netpoller and the generator's
// own work: with a caller per core, run-to-run spread of the latency
// median was 13% on two cores, against 3% with one core left free.
func serveRunner(srv *service.Server, procs int, next func(i int) (*tuplex.Plan, [][]any, bool, error)) *runner {
	clients := make([]*tuplex.Client, max(1, procs-1))
	for i := range clients {
		clients[i] = tuplex.NewClient("http://" + srv.Addr())
	}
	var hits atomic.Int64
	return &runner{
		clients: len(clients),
		op: func(c, i int) (time.Duration, error) {
			p, want, truncated, err := next(i)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			job, err := clients[c].Submit(context.Background(), p)
			d := time.Since(t0)
			if err != nil {
				return d, err
			}
			if job.CacheHit {
				hits.Add(1)
			}
			return d, checkReply(job, want, truncated)
		},
		serviceStats: func() (int64, int64, int64) {
			st := srv.Stats()
			return hits.Load(), st.CacheEvictions.Load(), st.JobsRejected.Load()
		},
		close: func() { srv.Close() },
	}
}

// ---- serve.cold ----

func setupServeCold(dir string, seed uint64, _ float64) ([]string, error) {
	path, err := writeSchedule(dir, func(i int) string { return fmt.Sprint(coldK(seed, i)) })
	return []string{path}, err
}

func openServeCold(_ string, seed uint64, procs int) (*runner, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	r := serveRunner(srv, procs, func(i int) (*tuplex.Plan, [][]any, bool, error) {
		k := coldK(seed, i)
		p, err := servePlan(k)
		return p, servePlanRows(k), false, err
	})
	r.plan = func(j int) ([]byte, error) { return planBytes(servePlan(coldK(seed, probeBase+j))) }
	// Prime: fill the plan cache, so that every timed submission evicts.
	for i := 0; i < cacheEntries; i++ {
		if _, err := r.op(0, primeBase+i); err != nil {
			srv.Close()
			return nil, fmt.Errorf("priming plan %d: %w", i, err)
		}
	}
	return r, nil
}

// ---- serve.warm ----

func setupServeWarm(dir string, seed uint64, scale float64) ([]string, error) {
	raw := data.Zillow(data.ZillowConfig{Rows: scaled(heavyRows, scale), Seed: seed})
	in := filepath.Join(dir, "zillow.csv")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		return nil, err
	}
	rows := handopt.Zillow(raw)
	want := make([][]any, len(rows))
	for i, r := range rows {
		want[i] = []any{r.URL, r.Zipcode, r.Address, r.City, r.State,
			r.Bedrooms, r.Bathrooms, r.Sqft, r.Offer, r.Type, r.Price}
	}
	if err := writeJSON(filepath.Join(dir, "oracle.json"), want); err != nil {
		return nil, err
	}
	sched, err := writeSchedule(dir, func(i int) string {
		heavy, v := warmPick(seed, i)
		if heavy {
			return "heavy"
		}
		return fmt.Sprint("light ", warmK(seed, v))
	})
	return []string{in, sched}, err
}

func openServeWarm(dir string, seed uint64, procs int) (*runner, error) {
	var heavyWant [][]any
	if err := readJSON(filepath.Join(dir, "oracle.json"), &heavyWant); err != nil {
		return nil, err
	}
	truncated := len(heavyWant) > maxResultRows
	if truncated {
		heavyWant = heavyWant[:maxResultRows]
	}
	in, err := filepath.Abs(filepath.Join(dir, "zillow.csv"))
	if err != nil {
		return nil, err
	}
	heavy, err := pipelines.Zillow(tuplex.NewContext(tuplex.WithExecutors(1)).CSV(in)).Plan()
	if err != nil {
		return nil, err
	}
	light := make([]*tuplex.Plan, lightVariants)
	lightWant := make([][][]any, lightVariants)
	for v := range light {
		k := warmK(seed, v)
		if light[v], err = servePlan(k); err != nil {
			return nil, err
		}
		lightWant[v] = servePlanRows(k)
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	r := serveRunner(srv, procs, func(i int) (*tuplex.Plan, [][]any, bool, error) {
		if isHeavy, v := warmPick(seed, i); !isHeavy {
			return light[v], lightWant[v], false, nil
		}
		return heavy, heavyWant, truncated, nil
	})
	r.cached = true
	r.plan = func(int) ([]byte, error) { return planBytes(light[0], nil) }
	// Prime: one checked submission of every plan. The schedule's first
	// entries need not cover all of them, so priming asks by plan.
	prime := func(p *tuplex.Plan, want [][]any, truncated bool) error {
		job, err := tuplex.NewClient("http://"+srv.Addr()).Submit(context.Background(), p)
		if err != nil {
			return err
		}
		return checkReply(job, want, truncated)
	}
	err = prime(heavy, heavyWant, truncated)
	for v := 0; v < lightVariants && err == nil; v++ {
		err = prime(light[v], lightWant[v], false)
	}
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	return r, nil
}
