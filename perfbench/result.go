package main

import (
	"net/http"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	// wrong counts failed ops that were not backpressure: answers that
	// failed the check, and errors on valid input.
	wrong   int
	metrics map[string]metric
	// notApplicable names the per-layer metrics reported as 0 because the
	// workload never enters that layer.
	notApplicable []string
	// invalid names metrics withheld because their measurement could not be
	// trusted (a replay that did not reproduce the served factors).
	invalid []string
	// detail carries sample counts and other context for the report line.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
}

// count tallies one op: ok when it passed the check, code its status.
func (o *outcome) count(ok bool, code int) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
		o.wrong++
	}
}

func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// na reports the named per-layer metrics as 0 and lists them as not
// applicable to the workload.
func (o *outcome) na(names ...string) {
	for _, n := range names {
		o.set(n, layerUnits[n], 0)
		o.notApplicable = append(o.notApplicable, n)
	}
	sort.Strings(o.notApplicable)
}

// withhold removes the named metrics and lists them as invalid.
func (o *outcome) withhold(names ...string) {
	for _, n := range names {
		delete(o.metrics, n)
		o.invalid = append(o.invalid, n)
	}
	sort.Strings(o.invalid)
}
