package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tcqr"
	"tcqr/internal/matgen"
)

func TestSameSeedSameRequests(t *testing.T) {
	frames := func(seed int64) [][]byte {
		g := newColdGen(seed, 96, 24)
		var out [][]byte
		for i := 0; i < 3; i++ {
			if err := g.op(i); err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]byte(nil), g.frame...))
			upd, err := g.updateFrame(nil, i, "k", i%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, upd)
		}
		return out
	}
	if a, b := frames(7), frames(7); !reflect.DeepEqual(a, b) {
		t.Fatal("cold requests differ for the same seed")
	}
	a, c := frames(7), frames(8)
	for i := range a {
		if i%2 == 0 && bytes.Equal(a[i], c[i]) {
			t.Fatalf("cold solve frame %d is the same for seeds 7 and 8", i/2)
		}
	}

	d := 2 * time.Second
	if !reflect.DeepEqual(schedule(7, hotRate, d), schedule(7, hotRate, d)) {
		t.Fatal("open-loop schedule differs for the same seed")
	}
	if reflect.DeepEqual(schedule(7, hotRate, d), schedule(8, hotRate, d)) {
		t.Fatal("open-loop schedule is the same for seeds 7 and 8")
	}
	if !reflect.DeepEqual(saturationOps(7), saturationOps(7)) || reflect.DeepEqual(saturationOps(7), saturationOps(8)) {
		t.Fatal("saturation op sequence does not follow the seed")
	}
	h7, h7b, h8 := newHotInputs(7), newHotInputs(7), newHotInputs(8)
	for k := range h7.keys {
		if !bytes.Equal(h7.keys[k].factor, h7b.keys[k].factor) || !reflect.DeepEqual(h7.keys[k].rhs, h7b.keys[k].rhs) ||
			!reflect.DeepEqual(h7.keys[k].blockMat, h7b.keys[k].blockMat) {
			t.Fatalf("hot key %d inputs differ for the same seed", k)
		}
		if bytes.Equal(h7.keys[k].factor, h8.keys[k].factor) {
			t.Fatalf("hot key %d matrix is the same for seeds 7 and 8", k)
		}
	}
}

func TestScheduleMix(t *testing.T) {
	sched := schedule(3, hotRate, 20*time.Second)
	if n := len(sched); math.Abs(float64(n)-20*hotRate) > 4*math.Sqrt(20*hotRate) {
		t.Fatalf("%d arrivals in 20 s at %g/s", n, hotRate)
	}
	var kinds [3]int
	var last [hotWriteKeys]opKind
	for i, a := range sched {
		kinds[a.kind]++
		if a.kind == opSolve {
			if a.key < 0 || a.key >= hotReadKeys {
				t.Fatalf("solve %d on key %d", i, a.key)
			}
			continue
		}
		w := a.key - hotReadKeys
		if w < 0 || w >= hotWriteKeys || a.kind == last[w] {
			t.Fatalf("update %d on key %d does not alternate append and remove", i, a.key)
		}
		last[w] = a.kind
	}
	if upd := kinds[opAppend] + kinds[opRemove]; upd != len(sched)/hotUpdateEvery {
		t.Fatalf("%d updates in %d ops", upd, len(sched))
	}
}

func TestCheckRejectsWrongX(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matgen.WithCond(rng, 120, 30, cond, matgen.Geometric)
	b := make([]float64, a.Rows)
	gaussian(rng, b)
	res, err := tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var c checker
	normF := frobenius(a)
	if opt, ok := c.accept(a, normF, b, res.X); !ok {
		t.Fatalf("refined solution rejected: optimality %g", opt)
	}
	bad := append([]float64(nil), res.X...)
	bad[3] *= 1 + 1e-6
	if opt, ok := c.accept(a, normF, b, bad); ok {
		t.Fatalf("perturbed x accepted: optimality %g", opt)
	}
	if _, ok := c.accept(a, normF, b, res.X[:len(res.X)-1]); ok {
		t.Fatal("short x accepted")
	}
	if _, ok := c.accept(a, normF, b, append(res.X, 0)); ok {
		t.Fatal("long x accepted")
	}
	bad = append([]float64(nil), res.X...)
	bad[0] = math.NaN()
	if _, ok := c.accept(a, normF, b, bad); ok {
		t.Fatal("NaN x accepted")
	}
}

// TestSmoke runs every workload for about a second, untraced and traced,
// and requires every op to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload")
	}
	for _, name := range sortedWorkloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				out, err := workloads[name](1, 1, traced)
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 || out.wrong != 0 {
					t.Fatalf("attempted %d, failed %d (wrong %d)", out.attempted, out.failed, out.wrong)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := out.metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing (invalid: %v)", d.name, out.invalid)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
				if len(out.metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(out.metrics), len(defs))
				}
				if traced && out.metrics["replay.mismatches"].Value != 0 {
					t.Errorf("%g replayed factorizations differ from the served ones", out.metrics["replay.mismatches"].Value)
				}
			})
		}
	}
}

func sortedWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Name == "hot-mixed" && !strings.Contains(w.Why, fmt.Sprintf("%g ops/s", hotRate)) {
			t.Errorf("hot-mixed why does not state the %g ops/s rate", hotRate)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, sortedWorkloads()) {
		t.Errorf("workloads %v, program runs %v", names, sortedWorkloads())
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := spec.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, e, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := spec.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, e, d)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Workload: "hot-mixed", Seed: 1, Commit: "c1"}
	b := a
	b.Seed, b.Commit = 2, "c2"
	if ok, diff := a.sameHost(b); !ok {
		t.Fatalf("seed and commit must not block a comparison: %v", diff)
	}
	for _, mut := range []func(*fingerprint){
		func(f *fingerprint) { f.CPU = "y" },
		func(f *fingerprint) { f.NProc = 1 },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.GoVersion = "go2" },
		func(f *fingerprint) { f.Workload = "cold-wide" },
	} {
		c := a
		mut(&c)
		if ok, _ := a.sameHost(c); ok {
			t.Errorf("%+v compared as the same host as %+v", c, a)
		}
	}

	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		line, err := json.Marshal(map[string]report{"report": {Fingerprint: fp, Metrics: map[string]metric{"latency_p50_ms": {1, "ms"}}}})
		if err != nil {
			t.Fatal(err)
		}
		p := dir + "/" + name
		if err := os.WriteFile(p, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pa, pb := write("a", a), write("b", b)
	c := a
	c.CPU = "y"
	pc := write("c", c)
	if code := compareMain([]string{pa, pb}); code != 0 {
		t.Fatalf("same-host compare exited %d", code)
	}
	if code := compareMain([]string{pa, pc}); code == 0 {
		t.Fatal("cross-host compare was not refused")
	}
}
