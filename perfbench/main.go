// Command perfbench is the repository's benchmark: one program that runs a
// named workload from a seed, checks that every output is correct, and
// prints each metric with its unit as the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload fleet-1024 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced, then again with the benchmark's
// own span recorder on, and prints the per-layer metrics (BENCHMARK.json
// names every metric and the end-to-end metric each layer should move).
//
// The benchmark measures the program from outside: it times its own calls
// into each module's public functions and reads public counters. Nothing is
// added inside the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// size holds every knob that scales a workload. defaultSize is what the
// benchmark runs; the smoke test runs tinySize.
type size struct {
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int

	// fleet-1024: the big healthy job and the small faulted side jobs.
	FleetNodes, FleetGPUs, FleetTP, FleetPP, FleetDP int
	// RecordCap bounds the records the traced fleet run captures for the
	// layer re-drives.
	RecordCap uint64

	// Topologies of the incident campaigns: the fleet's side jobs, the
	// replayed campaign and the served fleet.
	SideTopo      topoSpec
	CampaignTopos []topoSpec
	ServeTopo     topoSpec
}

func defaultSize() size {
	return size{
		Setups:     3,
		FleetNodes: 128, FleetGPUs: 8, FleetTP: 8, FleetPP: 4, FleetDP: 32,
		RecordCap: 200_000,
		SideTopo:  withPerClass(smallTopo, 3),
		CampaignTopos: []topoSpec{
			withPerClass(smallTopo, 4),
			{Name: "16-pp4", Nodes: 4, GPUs: 4, TP: 2, PP: 4, DP: 2, Window: 15 * time.Second, PerClass: 2},
			{Name: "64", Nodes: 8, GPUs: 8, TP: 2, PP: 4, DP: 8, Window: 15 * time.Second, PerClass: 1},
		},
		ServeTopo: withPerClass(smallTopo, 4),
	}
}

// tinySize shrinks every workload so the smoke test finishes in seconds.
func tinySize() size {
	s := defaultSize()
	s.Setups = 2
	s.FleetNodes, s.FleetGPUs, s.FleetTP, s.FleetPP, s.FleetDP = 4, 4, 2, 2, 4
	s.RecordCap = 5_000
	s.SideTopo = smallTopo
	s.CampaignTopos = []topoSpec{smallTopo}
	s.ServeTopo = smallTopo
	return s
}

func withPerClass(t topoSpec, n int) topoSpec {
	t.PerClass = n
	return t
}

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Traced   bool
	Size     size
	// SpanDir receives the traced run's spans; empty skips writing them.
	SpanDir string
}

// outcome is what one workload run measured. mu guards the counters and
// gates, which serve-mixed's generator goroutines update concurrently.
type outcome struct {
	mu                sync.Mutex
	Attempted, Failed int
	// Gates names every correctness check and whether it held.
	Gates map[string]bool
	E2E   map[string]float64
	Layer map[string]float64
	// Primary is the end-to-end metric the traced run is compared on to
	// give bench.trace_overhead_frac.
	Primary string
	Spans   *tracer
}

func newOutcome(primary string, tr *tracer) *outcome {
	return &outcome{Gates: map[string]bool{}, E2E: map[string]float64{}, Layer: map[string]float64{}, Primary: primary, Spans: tr}
}

// check records a correctness gate; a gate checked several times holds
// only if every check held.
func (o *outcome) check(name string, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v, seen := o.Gates[name]; seen {
		o.Gates[name] = v && ok
		return
	}
	o.Gates[name] = ok
}

// op counts one attempted operation and whether it failed.
func (o *outcome) op(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Attempted++
	if err != nil {
		o.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

func (o *outcome) correct() bool {
	if len(o.Gates) == 0 {
		return false
	}
	for name, ok := range o.Gates {
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", name)
			return false
		}
	}
	return o.Failed == 0
}

type workloadFunc func(config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fleet-1024":      runFleet,
	"incident-replay": runIncidentReplay,
	"serve-mixed":     runServeMixed,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes one invocation and builds the result line.
func run(cfg config) (resultOut, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return resultOut{}, fmt.Errorf("unknown workload %q (have %v)", cfg.Workload, workloadNames())
	}
	untraced := cfg
	untraced.Traced = false
	base, err := fn(untraced)
	if err != nil {
		return resultOut{}, err
	}
	res := resultOut{Correct: base.correct(), Attempted: base.Attempted, Failed: base.Failed, Metrics: map[string]metricOut{}}
	if !cfg.Traced {
		for _, m := range endToEnd {
			v, ok := base.E2E[m.Name]
			if !ok {
				return resultOut{}, fmt.Errorf("workload %s did not measure %s", cfg.Workload, m.Name)
			}
			res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		}
		return res, nil
	}

	// The traced run repeats the workload with spans on; set-up is not
	// measured there, so one set-up suffices.
	traced := cfg
	traced.Size.Setups = 1
	tr, err := fn(traced)
	if err != nil {
		return resultOut{}, err
	}
	res.Correct = res.Correct && tr.correct()
	res.Attempted += tr.Attempted
	res.Failed += tr.Failed
	if b, t := base.E2E[base.Primary], tr.E2E[base.Primary]; b != 0 {
		overhead := (b - t) / b
		if metricBetter(base.Primary) == "lower" {
			overhead = (t - b) / b
		}
		tr.Layer["bench.trace_overhead_frac"] = overhead
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricOut{Value: tr.Layer[m.Name], Unit: m.Unit}
	}
	if cfg.SpanDir != "" && tr.Spans != nil {
		path := filepath.Join(cfg.SpanDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := tr.Spans.writeFile(path); err != nil {
			return resultOut{}, err
		}
	}
	return res, nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: fleet-1024, incident-replay or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "wall seconds the timed phase measures")
		traceOn  = flag.Int("trace", 0, "1 prints per-layer metrics from a separate traced run")
		spanDir  = flag.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *traceOn == 1 {
		if err := os.MkdirAll(*spanDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, err := run(config{
		Workload: *workload, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second,
		Traced: *traceOn == 1, Size: defaultSize(), SpanDir: *spanDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
