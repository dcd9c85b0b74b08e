package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// FuzzSubmit posts each body to /v1/jobs twice. The second submission
// may come from the spec memo and the plan cache, the first from a
// fresh decode and compile (or from an earlier input's entry); either
// way both replies must agree on the status code, state, error,
// diagnostics, fingerprint and result. Only ids, timings, the cache
// outcome and the flight-recorder tail may differ.
//
// Bodies naming a file (a source path or a csv sink path) are skipped:
// the target must neither read nor write arbitrary files.
func FuzzSubmit(f *testing.F) {
	for _, body := range fuzzSeeds(f) {
		f.Add([]byte(body))
	}
	s := New(Config{
		MaxConcurrent:   1,
		ExecutorsPerJob: 1,
		MaxBodyBytes:    64 << 10,
		RequestTimeout:  10 * time.Second,
		Registry:        telemetry.NewRegistry(),
	})
	defer s.Close()
	h := s.Handler()
	submit := func(t *testing.T, body []byte) string {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return replyShape(t, rec.Code, rec.Body.Bytes())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if p, err := spec.Decode(body); err == nil && namesFile(p) {
			t.Skip("body names a file")
		}
		first := submit(t, body)
		if second := submit(t, body); second != first {
			t.Fatalf("resubmission answered differently:\nfirst  %s\nsecond %s", first, second)
		}
	})
}

// namesFile reports whether the pipeline reads or writes a named file.
func namesFile(p *spec.Pipeline) bool {
	if p == nil {
		return false
	}
	if p.Source.Path != "" || p.Sink.Path != "" {
		return true
	}
	for i := range p.Ops {
		if namesFile(p.Ops[i].Build) {
			return true
		}
	}
	return false
}

// fuzzSeeds are the serve.cold and serve.warm plan shapes (the heavy
// Zillow job over inline rows instead of a file), the service tests'
// specs and the spec and verifier corpora under testdata.
func fuzzSeeds(f *testing.F) []string {
	seeds := []string{smallSpec(1), coldSpec(1), invalidSpec, unknownFieldSpec}
	zillow, err := pipelines.Zillow(tuplex.NewContext(tuplex.WithExecutors(1)).
		CSV("", tuplex.CSVData(data.Zillow(data.ZillowConfig{Rows: 40, Seed: 1})))).Plan()
	if err != nil {
		f.Fatal(err)
	}
	b, err := zillow.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, string(b))
	for _, glob := range []string{"../spec/testdata/*.json", "../../testdata/*.json", "../../testdata/plancheck/*.json"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, string(raw))
		}
	}
	return seeds
}
