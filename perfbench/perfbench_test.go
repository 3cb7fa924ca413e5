package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDoc `json:"end_to_end"`
	PerLayer []metricDoc `json:"per_layer"`
}

type metricDoc struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestTinyRunsEmitEveryMetric runs every workload at self-test scale, with
// tracing off and on, and checks that the result line is correct and names
// exactly the metrics BENCHMARK.json lists, each with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloads {
		ours = append(ours, name)
	}
	slices.Sort(names)
	slices.Sort(ours)
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	dir := t.TempDir()
	for _, w := range names {
		for trace, want := range [][]metricDoc{bf.EndToEnd, bf.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "2", "--seconds", "0.2",
					"--trace", fmt.Sprint(trace), "--tiny", "--workdir", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceFails shows that a wrong reference count makes each
// workload's correctness check fail the run.
func TestCorruptReferenceFails(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 0.1, workdir: t.TempDir(), tiny: true, corruptReference: true}
			m, err := measure(name, w, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if m.result.Correct || len(m.wrong) == 0 {
				t.Fatalf("corrupted reference passed: %+v", m.result)
			}
		})
	}
}

// TestStoredCountersNameDrift checks that a counter differing from the one a
// previous run of the same build stored is named.
func TestStoredCountersNameDrift(t *testing.T) {
	cfg := config{seed: 1, workdir: t.TempDir()}
	if drift, err := checkStoredCounters(cfg, "w", map[string]int64{"core.tasks": 5, "plan.ops": 7}); err != nil || len(drift) != 0 {
		t.Fatalf("first run: drift %v, err %v", drift, err)
	}
	drift, err := checkStoredCounters(cfg, "w", map[string]int64{"core.tasks": 5, "plan.ops": 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 1 || !strings.Contains(drift[0], "plan.ops") {
		t.Fatalf("drift %v, want plan.ops named", drift)
	}
}

// TestDefaultSeedReproducesStandIns checks that the default workload seed
// generates the repository's Lj and As dataset stand-ins exactly.
func TestDefaultSeedReproducesStandIns(t *testing.T) {
	cfg := config{seed: defaultSeed}
	for name, g := range map[string]*graph.Graph{"Lj": ljGraph(cfg), "As": asGraph(cfg)} {
		want := bench.MustGet(name)
		if !slices.Equal(g.Row, want.Row) || !slices.Equal(g.Col, want.Col) {
			t.Errorf("default seed does not reproduce the %s stand-in", name)
		}
	}
	if other := ljGraph(config{seed: defaultSeed + 1}); slices.Equal(other.Col, bench.MustGet("Lj").Col) {
		t.Error("another seed generated the same Lj graph")
	}
}
