package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"tcqr/internal/wirefmt"
)

// This file adapts the binary frame codec (internal/wirefmt) to the daemon's
// API: content negotiation against the JSON contract, the frame layout of
// each request type (which drives both the decode of an incoming frame and
// the encode of a peer-forward frame), response framing, and the pooled
// frame buffer that lets a cache-hit solve run without per-request heap
// growth.
//
// Negotiation rules (DESIGN.md §12): a request IS binary when its
// Content-Type is application/x-tcqr-frame; a response IS binary when the
// Accept header names that type explicitly, or is absent on a binary
// request. Accept wildcards keep selecting JSON — existing clients that send
// Accept: */* must keep receiving the byte-for-byte JSON contract. Error
// responses are always the JSON envelope regardless of encoding: an error
// body is tiny, and a client that cannot parse the frame it asked about
// must still be able to read why.

// Wire encoding labels for the tcqrd_wire_* metric families.
const (
	encJSON   = "json"
	encBinary = "binary"
)

// isFrameRequest reports whether the request body is a binary frame.
func isFrameRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return strings.EqualFold(strings.TrimSpace(ct), wirefmt.ContentType)
	}
	return strings.EqualFold(mt, wirefmt.ContentType)
}

// wantsFrameResponse reports whether the success response should be a binary
// frame: an explicit Accept for the frame type, or a binary request with no
// Accept preference at all.
func wantsFrameResponse(r *http.Request, frameReq bool) bool {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return frameReq
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && strings.EqualFold(mt, wirefmt.ContentType) {
			return true
		}
	}
	return false
}

// readFrameBody drains the (size-capped) request body into a pooled buffer.
// The caller owns the buffer: release it with wirefmt.PutBuffer once no view
// into it can be referenced, or leak it to the collector when in doubt (the
// deadline-abandonment path) — never release early. The declared length
// only sizes the buffer up to limit, so a lying Content-Length cannot make
// the server allocate past the body cap.
func readFrameBody(r *http.Request, limit int64) ([]byte, error) {
	hint := int64(16 << 10)
	if r.ContentLength > 0 {
		hint = min(r.ContentLength, limit)
	}
	buf := bytes.NewBuffer(wirefmt.GetBuffer(int(hint)))
	if _, err := io.Copy(buf, r.Body); err != nil {
		wirefmt.PutBuffer(buf.Bytes())
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	return buf.Bytes(), nil
}

// framedRequest is a request type with a binary frame layout. Request types
// without one (the stream begin/commit/abort controls) take a JSON body
// under either content type.
type framedRequest interface{ frame() frameLayout }

// frameLayout is one request type's binary frame: [JSON meta, one section
// per slot in order (absent optional slots skipped), forward?]. The same
// layout drives the decode of an incoming frame and the encode of a
// peer-forward frame, so the two cannot drift apart.
type frameLayout struct {
	name  string // the endpoint, for error messages
	slots []frameSlot
	// fwdDeadline is the deadline a trailing TagForward section tightens on
	// decode; nil means the layout takes no forward section (only
	// cluster-routed endpoints do).
	fwdDeadline *int64
}

// frameSlot binds one bulk section to the request field it replaces: a
// matrix section for a *WireMatrix field, a vector section for a []float64
// field. The JSON metadata must leave the field empty.
type frameSlot struct {
	name     string // the JSON field name
	mat      **WireMatrix
	vec      *[]float64
	optional bool
}

func (sl frameSlot) set() bool {
	if sl.mat != nil {
		return *sl.mat != nil
	}
	return len(*sl.vec) != 0
}

func (sl frameSlot) tag() wirefmt.Tag {
	if sl.mat != nil {
		return wirefmt.TagMatrix
	}
	return wirefmt.TagVector
}

func (r *factorizeRequest) frame() frameLayout {
	return frameLayout{name: "factorize", fwdDeadline: &r.DeadlineMS,
		slots: []frameSlot{{name: "matrix", mat: &r.Matrix}}}
}

func (r *solveRequest) frame() frameLayout {
	return frameLayout{name: "solve", fwdDeadline: &r.DeadlineMS,
		slots: []frameSlot{{name: "matrix", mat: &r.Matrix, optional: true}, {name: "b", vec: &r.B}}}
}

func (r *updateRequest) frame() frameLayout {
	return frameLayout{name: "update", fwdDeadline: &r.DeadlineMS,
		slots: []frameSlot{{name: "append", mat: &r.Append, optional: true}}}
}

func (r *lowRankRequest) frame() frameLayout {
	return frameLayout{name: "lowrank", slots: []frameSlot{{name: "matrix", mat: &r.Matrix}}}
}

func (r *streamAppendRequest) frame() frameLayout {
	return frameLayout{name: "append", slots: []frameSlot{{name: "block", mat: &r.Block}}}
}

// splitFrame parses a frame body into its leading JSON metadata (returned as
// a reader for the strict JSON decoder) and the sections after it.
func splitFrame(body []byte) (io.Reader, []wirefmt.Section, error) {
	secs, err := wirefmt.Decode(body, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(secs) == 0 || secs[0].Tag != wirefmt.TagJSON {
		return nil, nil, errors.New("frame must start with a JSON metadata section")
	}
	meta := secs[0].Raw
	if len(meta) == 0 {
		meta = []byte("{}")
	}
	return bytes.NewReader(meta), secs[1:], nil
}

// fill binds a decoded frame's bulk sections to the layout's slots, after
// the metadata has been decoded into the request. Matrix payloads are copied
// out of the frame (factorize, solve-by-matrix, update and stream append
// park them in state that outlives the pooled request buffer); vectors alias
// it zero-copy (on aligned little-endian hosts), so the caller keeps the
// body alive until the request can no longer reference them.
func (l frameLayout) fill(secs []wirefmt.Section) error {
	for _, sl := range l.slots {
		if sl.set() {
			return fmt.Errorf("%s frame metadata must not carry a %s field; send it as a binary section", l.name, sl.name)
		}
	}
	var fwd *wirefmt.Section
	if n := len(secs); l.fwdDeadline != nil && n > 0 && secs[n-1].Tag == wirefmt.TagForward {
		secs, fwd = secs[:n-1], &secs[n-1]
	}
	for _, sl := range l.slots {
		if len(secs) == 0 || secs[0].Tag != sl.tag() {
			if sl.optional {
				continue
			}
			return l.shapeError()
		}
		if sl.mat != nil {
			*sl.mat = &WireMatrix{Rows: int(secs[0].A), Cols: int(secs[0].B),
				Data: append([]float64(nil), secs[0].Float64s()...)}
		} else {
			*sl.vec = secs[0].Float64s()
		}
		secs = secs[1:]
	}
	if len(secs) != 0 {
		return l.shapeError()
	}
	// A forwarded request must not outlive the coordinator waiting on it.
	if fwd != nil && fwd.A != 0 && (*l.fwdDeadline == 0 || int64(fwd.A) < *l.fwdDeadline) {
		*l.fwdDeadline = int64(fwd.A)
	}
	return nil
}

func (l frameLayout) shapeError() error {
	names := []string{"JSON meta"}
	for _, sl := range l.slots {
		if sl.optional {
			names = append(names, sl.name+"?")
		} else {
			names = append(names, sl.name)
		}
	}
	return fmt.Errorf("%s frame needs sections [%s]", l.name, strings.Join(names, ", "))
}

// encodeFrame encodes req in its frame layout into a pooled buffer: the
// JSON metadata is req with its slot fields cleared, then one section per
// required or present slot, then extra (the forward section).
func encodeFrame(req framedRequest, extra ...wirefmt.Section) ([]byte, error) {
	l := req.frame()
	secs := make([]wirefmt.Section, 1, 2+len(l.slots)+len(extra))
	for _, sl := range l.slots {
		if sl.optional && !sl.set() {
			continue
		}
		// Clear the field for the metadata marshal, restore it afterwards:
		// the request keeps serving locally if the forward falls through.
		if sl.mat != nil {
			m := *sl.mat
			secs = append(secs, wirefmt.MatrixSection(m.Rows, m.Cols, m.Data))
			*sl.mat = nil
			defer func() { *sl.mat = m }()
		} else {
			v := *sl.vec
			secs = append(secs, wirefmt.VectorSection(v))
			*sl.vec = nil
			defer func() { *sl.vec = v }()
		}
	}
	meta, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	secs[0] = wirefmt.JSONSection(meta)
	secs = append(secs, extra...)
	n, err := wirefmt.FrameLen(secs...)
	if err != nil {
		return nil, err
	}
	return wirefmt.AppendFrame(wirefmt.GetBuffer(n), secs...)
}

// binSolveMeta is the JSON metadata section of a binary solve response:
// solveResponse with the bulk x payload lifted into a vector section.
type binSolveMeta struct {
	Iterations int          `json:"iterations"`
	Converged  bool         `json:"converged"`
	Optimality float64      `json:"optimality"`
	Key        string       `json:"key"`
	Cached     bool         `json:"cached"`
	Batched    int          `json:"batched"`
	Hazards    []WireHazard `json:"hazards,omitempty"`
}

// binLowRankMeta is the JSON metadata section of a binary lowrank response:
// lowRankResponse with U, s and V lifted into binary sections (in that
// order).
type binLowRankMeta struct {
	Rank    int          `json:"rank"`
	Hazards []WireHazard `json:"hazards,omitempty"`
}

// frameSections splits a response into its binary frame sections: a JSON
// metadata section (marshaled by the caller) plus bulk float sections per
// endpoint. Returns the metadata value to marshal and the trailing bulk
// sections.
func frameSections(v any) (meta any, bulk []wirefmt.Section, err error) {
	switch resp := v.(type) {
	// The stream control responses carry no bulk payload: their binary frame
	// is just the JSON metadata section, so binary-preferring clients keep a
	// single content type across the whole begin/append/commit conversation.
	case factorizeResponse:
		return resp, nil, nil
	case streamBeginResponse:
		return resp, nil, nil
	case streamAppendResponse:
		return resp, nil, nil
	case streamAbortResponse:
		return resp, nil, nil
	// The update response is pure metadata (the factors stay server-side).
	case updateResponse:
		return resp, nil, nil
	case solveResponse:
		return binSolveMeta{
			Iterations: resp.Iterations,
			Converged:  resp.Converged,
			Optimality: resp.Optimality,
			Key:        resp.Key,
			Cached:     resp.Cached,
			Batched:    resp.Batched,
			Hazards:    resp.Hazards,
		}, []wirefmt.Section{wirefmt.VectorSection(resp.X)}, nil
	case lowRankResponse:
		return binLowRankMeta{Rank: resp.Rank, Hazards: resp.Hazards},
			[]wirefmt.Section{
				wirefmt.MatrixSection(resp.U.Rows, resp.U.Cols, resp.U.Data),
				wirefmt.VectorSection(resp.S),
				wirefmt.MatrixSection(resp.V.Rows, resp.V.Cols, resp.V.Data),
			}, nil
	}
	return nil, nil, fmt.Errorf("serve: no binary frame mapping for %T", v)
}
