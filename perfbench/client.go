package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tcqr/internal/serve"
	"tcqr/internal/wirefmt"
)

// The benchmark drives serve.Server.Handler in-process: no sockets, no
// listener, so the only OS threads are the Go runtime's own.

// recorder is a minimal http.ResponseWriter that keeps the status, headers
// and body of one response.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// post sends one request body to path and returns the response. binary
// marks the body as a wire frame (the response then comes back as a frame
// too, since no Accept header is sent).
func post(h http.Handler, path string, body []byte, binary bool) (*recorder, error) {
	req, err := http.NewRequest(http.MethodPost, "http://perfbench"+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("building %s request: %w", path, err)
	}
	if binary {
		req.Header.Set("Content-Type", wirefmt.ContentType)
	}
	rec := &recorder{hdr: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(rec, req)
	return rec, nil
}

// newServer builds a Server with the tcqrd flag defaults: 2 ms coalescing
// window, MaxBatch 32, queue 64, 32 cache entries, the default fp16 engine
// and GOMAXPROCS workers. backend nil selects serve.LibraryBackend.
func newServer(backend serve.Backend) *serve.Server {
	return serve.New(serve.Options{
		Window:       2 * time.Millisecond,
		MaxBatch:     32,
		QueueDepth:   64,
		CacheEntries: 32,
		Backend:      backend,
	})
}

// stages is one response's Server-Timing breakdown, in milliseconds.
type stages struct {
	queue, factorize, solve, update, encode float64
}

// parseServerTiming reads "queue;dur=0.012, solve;dur=3.1, ..." into stages;
// unknown stages are ignored.
func parseServerTiming(h string) stages {
	var s stages
	for _, part := range strings.Split(h, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		d, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			continue
		}
		switch name {
		case "queue":
			s.queue += d
		case "factorize":
			s.factorize += d
		case "solve":
			s.solve += d
		case "update":
			s.update += d
		case "encode":
			s.encode += d
		}
	}
	return s
}

// hazard is the wire form of one typed hazard event.
type hazard struct {
	Kind   string `json:"kind"`
	Stage  string `json:"stage"`
	Action string `json:"action"`
}

// solveMetaResp is the metadata of a solve response (JSON body, or the
// metadata section of a binary frame); X is only present in JSON bodies.
type solveMetaResp struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Key        string    `json:"key"`
	Cached     bool      `json:"cached"`
	Batched    int       `json:"batched"`
	Hazards    []hazard  `json:"hazards"`
}

// keyResp is the metadata of a factorize or update response.
type keyResp struct {
	Key   string `json:"key"`
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
	Cols  int    `json:"cols"`
}

// decodeFrameResp splits a binary response into its JSON metadata (decoded
// into meta) and, when present, its trailing vector section (returned as a
// view into body).
func decodeFrameResp(body []byte, meta any) ([]float64, error) {
	secs, err := wirefmt.Decode(body, nil)
	if err != nil {
		return nil, fmt.Errorf("decoding response frame: %w", err)
	}
	if len(secs) == 0 || secs[0].Tag != wirefmt.TagJSON {
		return nil, fmt.Errorf("response frame has no metadata section")
	}
	if err := json.Unmarshal(secs[0].Raw, meta); err != nil {
		return nil, fmt.Errorf("decoding response metadata: %w", err)
	}
	if v := wirefmt.FindSection(secs[1:], wirefmt.TagVector); v != nil {
		return v.Float64s(), nil
	}
	return nil, nil
}

// countHazards returns the LSQR fallbacks and panel escalations a response
// reports.
func countHazards(hs []hazard) (lsqr, panel int) {
	for _, h := range hs {
		if h.Action == "fallback to LSQR" {
			lsqr++
		}
		if h.Stage == "panel" {
			panel++
		}
	}
	return lsqr, panel
}
