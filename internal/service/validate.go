package service

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/gotuplex/tuplex/internal/plancheck"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// validateResponse is the wire shape of POST /v1/validate and the 422
// body on /v1/jobs. OK is true when no error-severity diagnostic is
// present (warnings and infos do not block admission).
type validateResponse struct {
	OK          bool                   `json:"ok"`
	Diagnostics []plancheck.Diagnostic `json:"diagnostics"`
	Error       string                 `json:"error,omitempty"`
}

// decodeDiagnostics maps accumulated spec decode problems (unknown
// fields, version mismatch) onto TPX000 entries. Returns nil for
// errors that are not a *spec.DecodeError — e.g. syntactically broken
// JSON — which keep their plain 400 treatment.
func decodeDiagnostics(err error) []plancheck.Diagnostic {
	var de *spec.DecodeError
	if !errors.As(err, &de) {
		return nil
	}
	diags := make([]plancheck.Diagnostic, 0, len(de.Problems))
	for _, prob := range de.Problems {
		diags = append(diags, plancheck.Diagnostic{
			Code: plancheck.CodeDecode, Severity: plancheck.SevError, Msg: prob,
		})
	}
	return diags
}

// handleValidate runs the whole-plan static verifier over a posted
// spec and returns every diagnostic. Nothing is compiled, cached or
// executed — the endpoint is safe to hammer from editors and CI, and
// it never consumes an admission slot.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST with a pipeline spec body")
		return
	}
	body, err := readBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	diags := []plancheck.Diagnostic{}
	p, err := spec.Decode(body)
	if err != nil {
		dd := decodeDiagnostics(err)
		if dd == nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		diags = dd
	} else {
		diags = append(diags, plancheck.Check(p)...)
	}
	writeJSON(w, http.StatusOK, validateResponse{
		OK:          !plancheck.HasErrors(diags),
		Diagnostics: diags,
	})
}

// rejectInvalid answers a submission that failed static verification:
// 422 with the full diagnostic list. It runs before fingerprinting and
// admission, so an invalid spec consumes no queue slot, no cache entry
// and no job id — only the invalid counter moves.
func (s *Server) rejectInvalid(w http.ResponseWriter, traceID string, diags []plancheck.Diagnostic) {
	s.stats.JobsInvalid.Add(1)
	s.flight.Record(telemetry.EventInvalid, "", traceID, 0, "static verification")
	n := 0
	for _, d := range diags {
		if d.Severity == plancheck.SevError {
			n++
		}
	}
	writeJSON(w, http.StatusUnprocessableEntity, validateResponse{
		OK:          false,
		Diagnostics: diags,
		Error:       fmt.Sprintf("spec failed static verification with %d error(s)", n),
	})
}
