package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies what a result set was measured on and with. Two
// result sets are comparable only when their host fields agree: the same
// benchmark moves by more than most changes between hosts.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is a SHA-256 over the checkout's Go sources and module files
	// (the benchmark runs from checkouts that carry no VCS metadata).
	Commit   string `json:"commit"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
}

// sameHost reports whether two fingerprints were taken on comparable hosts
// and lists the fields that differ.
func (f fingerprint) sameHost(g fingerprint) (bool, []string) {
	var diff []string
	if f.CPU != g.CPU {
		diff = append(diff, fmt.Sprintf("cpu %q vs %q", f.CPU, g.CPU))
	}
	if f.NProc != g.NProc {
		diff = append(diff, fmt.Sprintf("nproc %d vs %d", f.NProc, g.NProc))
	}
	if f.GOMAXPROCS != g.GOMAXPROCS {
		diff = append(diff, fmt.Sprintf("GOMAXPROCS %d vs %d", f.GOMAXPROCS, g.GOMAXPROCS))
	}
	if f.GoVersion != g.GoVersion {
		diff = append(diff, fmt.Sprintf("go %s vs %s", f.GoVersion, g.GoVersion))
	}
	if f.Workload != g.Workload {
		diff = append(diff, fmt.Sprintf("workload %s vs %s", f.Workload, g.Workload))
	}
	return len(diff) == 0, diff
}

func hostFingerprint(workload string, seed int64) (fingerprint, error) {
	commit, err := sourceDigest(".")
	if err != nil {
		return fingerprint{}, fmt.Errorf("hashing the sources: %w", err)
	}
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Workload:   workload,
		Seed:       seed,
	}, nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in path
// order, skipping hidden directories (VCS metadata, build output).
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// readReports returns every report line in a captured standard output.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Report *report `json:"report"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Report != nil {
			out = append(out, *line.Report)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no report line", path)
	}
	return out, nil
}

// compareMain compares two result sets, each the captured standard output
// of one or more runs of one workload: it prints each metric's median per
// set and the relative change, and refuses (exit 2) when any two reports
// differ in host fingerprint, workload or trace mode.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <before.txt> <after.txt>")
		return 2
	}
	var sets [2][]report
	for i, p := range args {
		r, err := readReports(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 2
		}
		sets[i] = r
	}
	ref := sets[0][0]
	for _, set := range sets {
		for _, r := range set {
			if ok, diff := ref.Fingerprint.sameHost(r.Fingerprint); !ok || r.Trace != ref.Trace {
				if r.Trace != ref.Trace {
					diff = append(diff, fmt.Sprintf("trace %d vs %d", ref.Trace, r.Trace))
				}
				fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare different fingerprints: %s\n", strings.Join(diff, "; "))
				return 2
			}
		}
	}
	var names []string
	for n := range ref.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %14s %14s %9s\n", "metric", "before", "after", "change")
	for _, n := range names {
		var med [2]float64
		for i, set := range sets {
			var vs []float64
			for _, r := range set {
				if m, ok := r.Metrics[n]; ok {
					vs = append(vs, m.Value)
				}
			}
			med[i] = quantile(vs, 0.5)
		}
		fmt.Printf("%-32s %14.6g %14.6g %+8.1f%%\n", n, med[0], med[1], 100*frac(med[1]-med[0], med[0]))
	}
	return 0
}
