// Command perfbench is the repository benchmark: it drives an in-process
// tcqrd server (serve.Server with the daemon's flag defaults) through one
// workload, checks every answer, and prints the end-to-end metrics, or with
// --trace 1 the per-layer metrics. README.md describes the workloads and
// metrics. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload cold-wide --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare before.txt after.txt
//
// The last line of standard output is the result object; the line before it
// is a report with the host fingerprint, the seed and the sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds float64, traced bool) (*outcome, error){
	"cold-wide": func(seed int64, seconds float64, traced bool) (*outcome, error) {
		return runCold(coldShape{1536, 768}, seed, seconds, traced)
	},
	"cold-tall": func(seed int64, seconds float64, traced bool) (*outcome, error) {
		return runCold(coldShape{4096, 256}, seed, seconds, traced)
	},
	"hot-mixed": runHot,
}

// report is the line printed before the result: everything needed to
// reproduce and to compare the run.
type report struct {
	Fingerprint   fingerprint       `json:"fingerprint"`
	Workload      string            `json:"workload"`
	Trace         int               `json:"trace"`
	Seconds       float64           `json:"seconds"`
	Metrics       map[string]metric `json:"metrics"`
	NotApplicable []string          `json:"not_applicable,omitempty"`
	Invalid       []string          `json:"invalid,omitempty"`
	Detail        map[string]any    `json:"detail"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cold-wide, cold-tall or hot-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 30, "measured time of the run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload cold-wide|cold-tall|hot-mixed, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fp, err := hostFingerprint(*workload, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep := report{
		Fingerprint:   fp,
		Workload:      *workload,
		Trace:         *trace,
		Seconds:       *seconds,
		Metrics:       out.metrics,
		NotApplicable: out.notApplicable,
		Invalid:       out.invalid,
		Detail:        out.detail,
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
