package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestBodyReadDeclaredLength pins the handlers' body read against the
// declared Content-Length: an exact, a short, a long and an absent
// (chunked) declaration all answer as the exact one does, and a body
// past MaxBodyBytes gets 413 whatever it declares.
func TestBodyReadDeclaredLength(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxBodyBytes: 4096})
	h := s.Handler()
	do := func(path, body string, declared int64) (int, string) {
		t.Helper()
		// A reader without a length: httptest keeps it as is, the way a
		// chunked body reaches a handler.
		req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(strings.NewReader(body)))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	body := smallSpec(3)
	n := int64(len(body))
	wantCode, want := do("/v1/validate", body, n)
	if wantCode != http.StatusOK {
		t.Fatalf("validate: status %d: %s", wantCode, want)
	}
	for _, declared := range []int64{-1, n - 10, n + 10, 0} {
		if code, got := do("/v1/validate", body, declared); code != wantCode || got != want {
			t.Fatalf("validate with Content-Length %d: status %d, body %s; want %d %s", declared, code, got, wantCode, want)
		}
		if code, got := do("/v1/jobs", body, declared); code != http.StatusOK || decodeStatus(t, []byte(got)).State != StateDone {
			t.Fatalf("submit with Content-Length %d: status %d: %s", declared, code, got)
		}
	}
	big := `{"v":1,"source":{"kind":"csv","data":"` + strings.Repeat("a", 5000) + `"}}`
	for _, declared := range []int64{-1, int64(len(big)), 100} {
		for _, path := range []string{"/v1/validate", "/v1/jobs"} {
			if code, got := do(path, big, declared); code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s, oversized body with Content-Length %d: want 413, got %d: %s", path, declared, code, got)
			}
		}
	}
}

// TestBodyReadChunked posts a body without a length over HTTP, so it
// arrives chunked.
func TestBodyReadChunked(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxBodyBytes: 4096})
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", io.MultiReader(strings.NewReader(smallSpec(4))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || decodeStatus(t, raw).State != StateDone {
		t.Fatalf("chunked submit: status %d: %s", resp.StatusCode, raw)
	}
}

// TestBodyReadSizedByContentLength pins the allocation: a body with a
// Content-Length is read into one buffer of about its size, but a
// declaration alone sizes no more than bodyPresize, so a client that
// declares MaxBodyBytes and sends a few bytes pins little. A body past
// the presize grows and arrives whole, whatever it declares.
func TestBodyReadSizedByContentLength(t *testing.T) {
	const max = 8 << 20
	big := 3 * bodyPresize
	for _, c := range []struct {
		size, declared int
		most           uint64 // bytes allocated per read; 0: unchecked
	}{
		// io.ReadAll's doublings from 512 B cost about four times the body.
		{12 << 10, 12 << 10, 12 << 10 * 3 / 2},
		{7, max, 2 * (bodyPresize + 1)},
		{big, big, 0},
		{big, big - 100, 0},
		{big, big + 100, 0},
	} {
		body := bytes.Repeat([]byte("x"), c.size)
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			req := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(c.declared)}
			got, err := readBody(req, max)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d bytes declaring %d: read %d bytes, err %v", c.size, c.declared, len(got), err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; c.most > 0 && per > c.most {
			t.Fatalf("reading %d bytes declaring %d allocated %d bytes per read, at most %d", c.size, c.declared, per, c.most)
		}
	}
}
