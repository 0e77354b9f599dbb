package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prfserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/prfserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building prfserve: %v\n%s", err, out)
	}
	return bin
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

// TestTinyRuns plays every workload at tiny size in both modes and checks
// that each metric BENCHMARK.json declares appears with its unit, no
// undeclared one does, and nothing failed.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs prfserve")
	}
	bin := buildServer(t)
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			t.Errorf("BENCHMARK.json lists unknown workload %q", wl.Name)
		}
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := config{workload: wl, seed: 7, seconds: 1, trace: trace, prfserve: bin,
				workdir: t.TempDir(), tiny: true, corrupt: -1, setupRuns: 2}
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minSamples {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, name, got, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", wl, trace, name)
				}
			}
		}
	}
}

// TestCorruptReferenceIsCaught proves the answer check bites: with one
// query's reference body altered, every request for that query fails.
func TestCorruptReferenceIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs prfserve")
	}
	bin := buildServer(t)
	for _, wl := range workloadNames {
		cfg := config{workload: wl, seed: 7, seconds: 1, prfserve: bin, workdir: t.TempDir(),
			tiny: true, corrupt: 0, setupRuns: 1}
		res, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference went unnoticed (failed=%d of %d)", wl, res.Failed, res.Attempted)
		}
	}
}
