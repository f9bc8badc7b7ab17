package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at tiny scale, untraced and
// traced, and checks that each prints every metric of its mode with its
// unit, that its correctness gates ran and held, and that no operation
// failed.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	gates := map[string][]string{
		"fleet-1024":      {"fleet job raised no trigger", "no trace record lost", "records ingested", "every incident is scorable", "ingest accepted equals lines and samples sent"},
		"incident-replay": {"replay reproduces the recorded outcome", "every incident is scorable", "no trace record lost while recording", "ingest accepted equals lines and samples sent"},
		"serve-mixed":     {"every query page is non-empty", "channel counters grew by the lines and samples sent", "every incident is scorable", "ingest accepted equals lines and samples sent"},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{Workload: name, Seed: 7, Seconds: time.Second, Size: tinySize(), SpanDir: t.TempDir()}

			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range gates[name] {
				ok, ran := o.Gates[g]
				if !ran {
					t.Errorf("gate %q did not run", g)
				} else if !ok {
					t.Errorf("gate %q failed", g)
				}
			}
			if !o.correct() {
				t.Errorf("run not correct: gates %v, %d of %d operations failed", o.Gates, o.Failed, o.Attempted)
			}

			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			cfg.Traced = true
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			if _, err := os.Stat(cfg.SpanDir + "/spans-" + name + "-seed7.json"); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, res resultOut, want []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		case nonZero && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
}

// TestMetricCatalogueMatchesBenchmarkJSON keeps the printed metric names and
// units in step with the benchmark description at the repository root.
func TestMetricCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &desc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", desc.EndToEnd, endToEnd)
	same("per_layer", desc.PerLayer, perLayer)
	// BENCHMARK.json may leave out a workload the benchmark can run (see
	// METRICS.md for why fleet-1024 is left out); it may not name one the
	// benchmark cannot.
	for _, w := range desc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(desc.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(desc.Workloads))
	}
}
