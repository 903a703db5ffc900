package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcqr/internal/wirefmt"
)

// postPaths is every POST endpoint of the request pipeline.
var postPaths = []string{
	"/v1/factorize",
	"/v1/factorize/stream/begin",
	"/v1/factorize/stream/append",
	"/v1/factorize/stream/commit",
	"/v1/factorize/stream/abort",
	"/v1/solve",
	"/v1/update",
	"/v1/lowrank",
}

// TestFrontDoorContract pins what the pipeline's front door answers on every
// POST endpoint in both request encodings, before any endpoint-specific code
// runs: a wrong method is 405 with no Server-Timing, a draining server is
// 503 with Retry-After, a body over MaxBodyBytes is 413 too_large, a body
// that does not parse is 400 bad_input — and every one of them is the JSON
// error envelope, even for a frame request that asked for a frame response.
func TestFrontDoorContract(t *testing.T) {
	const maxBody = 4 << 10
	live := New(Options{Workers: 1, MaxBodyBytes: maxBody})
	defer live.Close()
	drained := New(Options{Workers: 1, MaxBodyBytes: maxBody})
	defer drained.Close()
	drained.BeginDrain()

	// The oversized JSON body is a valid prefix that never closes, so the
	// decoder keeps reading until the body cap stops it; the oversized frame
	// is well formed, just too long.
	oversized := map[bool][]byte{
		false: append([]byte(`{"pad":[`), bytes.Repeat([]byte("0,"), maxBody)...),
		true:  frameBody(t, map[string]any{}, wirefmt.VectorSection(make([]float64, maxBody/8+1))),
	}
	malformed := map[bool][]byte{
		false: []byte("{not json"),
		true:  []byte("not a frame"),
	}
	rows := []struct {
		name       string
		srv        *Server
		method     string
		body       func(frame bool) []byte
		wantStatus int
		wantCode   string
	}{
		{"get", live, http.MethodGet, func(bool) []byte { return nil }, 405, "method_not_allowed"},
		{"draining", drained, http.MethodPost, func(f bool) []byte { return malformed[f] }, 503, "draining"},
		{"oversized", live, http.MethodPost, func(f bool) []byte { return oversized[f] }, 413, "too_large"},
		{"malformed", live, http.MethodPost, func(f bool) []byte { return malformed[f] }, 400, "bad_input"},
	}
	for _, path := range postPaths {
		for _, frame := range []bool{false, true} {
			enc := "json"
			if frame {
				enc = "frame"
			}
			for _, row := range rows {
				t.Run(strings.TrimPrefix(path, "/v1/")+"/"+enc+"/"+row.name, func(t *testing.T) {
					req := httptest.NewRequest(row.method, path, bytes.NewReader(row.body(frame)))
					if frame {
						req.Header.Set("Content-Type", wirefmt.ContentType)
						req.Header.Set("Accept", wirefmt.ContentType)
					} else {
						req.Header.Set("Content-Type", "application/json")
					}
					rec := httptest.NewRecorder()
					row.srv.Handler().ServeHTTP(rec, req)
					if rec.Code != row.wantStatus {
						t.Fatalf("status %d, want %d (body %q)", rec.Code, row.wantStatus, rec.Body.String())
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
						t.Fatalf("error Content-Type %q, want application/json", ct)
					}
					var env envelope
					if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
						t.Fatalf("error body %q is not the JSON envelope: %v", rec.Body.String(), err)
					}
					if env.Error.Code != row.wantCode {
						t.Fatalf("error code %q (%s), want %q", env.Error.Code, env.Error.Message, row.wantCode)
					}
					if row.wantStatus == 405 {
						if st := rec.Header().Get("Server-Timing"); st != "" {
							t.Fatalf("405 carries Server-Timing %q", st)
						}
					}
					if row.wantStatus == 503 && rec.Header().Get("Retry-After") == "" {
						t.Fatal("503 without Retry-After")
					}
				})
			}
		}
	}
}
