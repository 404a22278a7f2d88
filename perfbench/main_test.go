package main

import (
	"bytes"
	"encoding/json"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"

	"repro"
)

// testScale keeps the self-tests fast; the workloads' logic is the same at
// every size.
var testScale = scale{n: 1500, chaos: 1000}

func setUp(t *testing.T, name string, seed int64) workload {
	t.Helper()
	w, err := newWorkload(name, seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setup(nil); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	return w
}

func opsOf(t *testing.T, name string, seed int64, count int) []outcome {
	t.Helper()
	return runOps(setUp(t, name, seed), 0, 0, count)
}

// Two runs with one seed make the same ops: identical deterministic counts
// and failures, op by op.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := opsOf(t, name, 5, 12), opsOf(t, name, 5, 12)
			for i := range a {
				x, y := a[i], b[i]
				if x.rounds != y.rounds || x.msgs != y.msgs || x.recourse != y.recourse || x.digest != y.digest || x.fail != y.fail {
					t.Fatalf("op %d differs between runs: %+v vs %+v", i, x, y)
				}
				if x.fail != "" {
					t.Fatalf("op %d failed: %s", i, x.fail)
				}
			}
		})
	}
}

// Another seed changes the op stream.
func TestSeedChangesStream(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := opsOf(t, name, 5, 6), opsOf(t, name, 6, 6)
			for i := range a {
				if a[i].digest != b[i].digest {
					return
				}
			}
			t.Fatal("seeds 5 and 6 produced the same outputs for every op")
		})
	}
}

// The independent checker accepts the library's outputs and rejects a
// corrupted copy of each, for every problem.
func TestCheckerRejectsCorruption(t *testing.T) {
	g := repro.BarabasiAlbert(400, 3, repro.NewRand(3))
	tree := repro.RandomTree(400, repro.NewRand(4))
	for _, problem := range []string{"mis", "matching", "vcolor", "ecolor", "tree"} {
		t.Run(problem, func(t *testing.T) {
			graph := g
			if problem == "tree" {
				graph = tree
			}
			preds, err := repro.GeneratePreds(problem, graph, 20, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := repro.RunProblem(graph, problem, "simple", preds, repro.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := newChecker(graph).withEdges()
			out, edge := res.Output, res.EdgeOutput
			if err := c.check(problem, out, edge); err != nil {
				t.Fatalf("valid output rejected: %v", err)
			}
			out = append([]int(nil), out...)
			edge = append([]int(nil), edge...)
			corrupt(t, graph, problem, out, edge)
			if err := c.check(problem, out, edge); err == nil {
				t.Fatal("corrupted output accepted")
			}
		})
	}
}

// corrupt breaks one output entry in the way each problem's check must
// catch: an MIS member leaves the set, a matched node drops its partner, a
// node takes a neighbor's color, an edge takes an adjacent edge's color.
func corrupt(t *testing.T, g *repro.Graph, problem string, out, edge []int) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		switch {
		case (problem == "mis" || problem == "tree") && out[v] == 1:
			out[v] = 0
			return
		case problem == "matching" && out[v] != 0:
			out[v] = 0
			return
		case problem == "vcolor" && len(nbrs) > 0:
			out[v] = out[nbrs[0]]
			return
		case problem == "ecolor" && len(nbrs) > 1:
			idx := g.EdgeIndex()
			e := func(u int32) int { return idx[[2]int{min(v, int(u)), max(v, int(u))}] }
			edge[e(nbrs[1])] = edge[e(nbrs[0])]
			return
		}
	}
	t.Fatalf("no entry of %s to corrupt", problem)
}

// The parity guard names the first traced op that differs from its
// untraced twin in rounds, messages, output or success.
func TestParityNamesDivergentOp(t *testing.T) {
	plain := opsOf(t, "chaos-sharded", 5, 3)
	if err := parity("chaos-sharded", plain, plain); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*outcome){
		func(o *outcome) { o.rounds++ },
		func(o *outcome) { o.msgs-- },
		func(o *outcome) { o.digest ^= 1 },
		func(o *outcome) { o.fail = "rejected" },
	} {
		traced := append([]outcome(nil), plain...)
		mutate(&traced[2])
		err := parity("chaos-sharded", plain, traced)
		if err == nil || !strings.Contains(err.Error(), "op 2 of chaos-sharded") {
			t.Fatalf("got %v, want a parity error naming op 2", err)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-tests compare with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastResult runs the benchmark at test scale and decodes its last line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var buf bytes.Buffer
	if err := runAt(testScale, args, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("run not correct: %+v", r)
	}
	return r
}

func names(r result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Both modes print exactly the metrics BENCHMARK.json declares, with its
// units, and the traced replay passes the parity guard on every workload.
func TestMetricsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			r := lastResult(t, "-workload", w, "-seed", "2", "-seconds", "0.2", "-trace", []string{"0", "1"}[trace])
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: printed %v, want %d metrics", w, trace, names(r), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s printed as %+v (present %v), want unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// The benchmark refuses to measure with more Go threads than CPUs.
func TestRefusesOversubscribedGOMAXPROCS(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(goruntime.NumCPU() + 1))
	var buf bytes.Buffer
	err := runAt(testScale, []string{"-workload", "oneshot-ba", "-seconds", "0"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("got %v, want a GOMAXPROCS refusal", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("printed %q before refusing", buf.String())
	}
}
