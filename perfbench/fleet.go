package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mycroft"
	"mycroft/internal/experiments"
)

// fleet-1024: one healthy 1024-rank job (128 nodes × 8 GPUs, TP 8 × PP 4 ×
// DP 32) run flat out. The engine, the host rings, the collector drain and
// store ingest do almost all the work; trigger and RCA watch ten sampled
// ranks and see no incident. Small faulted side jobs share the engine,
// three per core fault class, because every workload reports the detection
// fractions; they add a sixth as many ranks as the big job has, half of
// them halted by their faults. When the big job completes fleetKeepIters
// iterations the engine pauses, outside the throughput figures: live heap
// is read, the query mix is answered in-process, and the job's telemetry so
// far is kept. After the timed phase that telemetry is fed, in-process, to
// fresh never-started copies of the big job.

const fleetJob mycroft.JobID = "fleet"

const (
	// fleetStepEvents is how many events the loop dispatches between two
	// looks at the clock; fleetChunk is the wall time one traced
	// service.run span covers.
	fleetStepEvents = 256
	fleetChunk      = 20 * time.Millisecond
	// fleetSpan is the virtual time the throughput figures cover, about
	// the first 13 wall s here.
	fleetSpan = 100 * time.Second
	// fleetQueries is how many queries the pause answers. An in-process
	// query takes microseconds, so this costs a fraction of a second and
	// leaves a hundred samples beyond p99 in each latency window.
	fleetQueries = 40_000
	// fleetKeepIters is the big job's iteration count at the pause, about
	// 60 virtual s, past every side-job incident's scoring horizon. The
	// perf channel arms a rank's envelope at its seventh sample, so of the
	// telemetry of eight iterations three quarters are cheap calls on
	// unarmed envelopes, an eighth climbs as the ranks arm, and an eighth
	// are full analyses: p50 and p99 each fall inside one regime, not on
	// the climb between them.
	fleetKeepIters = 8
)

type fleet struct {
	svc *mycroft.Service
	big *mycroft.JobHandle
	rec *mycroft.Recorder
	art bytes.Buffer
}

func buildFleet(cfg config, incidents []incident) (*fleet, error) {
	s := cfg.Size
	f := &fleet{svc: mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.Seed})}
	big, err := f.svc.AddJob(fleetJob, bigJob(s, 0))
	if err != nil {
		return nil, err
	}
	f.big = big
	for _, inc := range incidents {
		if _, err := addIncidentJob(f.svc, inc); err != nil {
			return nil, err
		}
	}
	if cfg.Traced {
		// Capture the big job's pipeline inputs for the layer re-drives;
		// attached before Start so the artifact replays exactly.
		if f.rec, err = f.svc.Record(fleetJob, &f.art); err != nil {
			return nil, err
		}
	}
	f.svc.Start()
	return f, nil
}

func runFleet(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	o := newOutcome("sim_s_per_wall_s", tr)
	s := cfg.Size
	rng := rand.New(rand.NewSource(cfg.Seed))
	incidents := campaign(rng, "side-", []topoSpec{s.SideTopo})
	cycle := fleetQueryCycle(rng, s, incidents)

	var f *fleet
	var setups []float64
	for i := 0; i < s.Setups; i++ {
		f = nil
		runtime.GC()
		start := time.Now()
		var err error
		if f, err = buildFleet(cfg, incidents); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.E2E["setup_s"] = median(setups)
	svc := f.svc

	var posts []post
	collecting := true
	tapFeed(f.big, func(p post) {
		if collecting {
			posts = append(posts, p)
		}
	})
	stats := newClientStats()
	// The set-ups' garbage is collected before the timed phase, so the
	// run's collections fall at the same points in every run.
	runtime.GC()
	// pauseAlloc is what the pause allocated, kept out of the engine's
	// allocation per event.
	var ms0, ms1 runtime.MemStats
	var pauseAlloc uint64
	if cfg.Traced {
		runtime.ReadMemStats(&ms0)
	}
	before := countPipeline(svc)
	d0, v0 := svc.Eng.Dispatched(), svc.Now()
	peak := 0
	var heap float64
	// Throughput is fleetSpan of virtual time over the wall time of the
	// Step calls that simulated it: the same work, collections included,
	// in every run of a seed.
	var runTime, spanTime time.Duration
	var spanV time.Duration
	var spanRec uint64
	start := time.Now()
	for time.Since(start) < cfg.Seconds || spanTime == 0 || collecting {
		chunk := time.Now()
		runTime += tr.timed("service.run", 0, func() {
			for time.Since(chunk) < fleetChunk {
				for i := 0; i < fleetStepEvents; i++ {
					if !svc.Eng.Step() {
						return
					}
				}
			}
		})
		peak = max(peak, svc.Eng.Pending())
		if f.rec != nil && f.big.RecordsIngested() >= s.RecordCap {
			err := f.rec.Close()
			o.check("recorder captured cleanly", err == nil)
			f.rec = nil
		}
		if v := svc.Now() - v0; spanTime == 0 && v >= fleetSpan {
			spanTime, spanV, spanRec = runTime, v, countPipeline(svc).Ingested-before.Ingested
		}
		if collecting && f.big.Job.IterationsDone() >= fleetKeepIters {
			// The store grows with simulated time, so live heap is read
			// and the queries answered at a fixed point of the job's
			// progress, not at the end of a wall-clock run.
			heap = liveHeapMB()
			collecting = false
			var p0, p1 runtime.MemStats
			if cfg.Traced {
				runtime.ReadMemStats(&p0)
			}
			stats.queryInProcess(svc, cycle, fleetQueries, o, tr)
			if cfg.Traced {
				runtime.ReadMemStats(&p1)
				pauseAlloc = p1.TotalAlloc - p0.TotalAlloc
			}
		}
	}
	virtual := svc.Now() - v0
	dispatched := svc.Eng.Dispatched() - d0
	if cfg.Traced {
		runtime.ReadMemStats(&ms1)
	}
	after := countPipeline(svc)

	o.E2E["sim_s_per_wall_s"] = spanV.Seconds() / spanTime.Seconds()
	o.E2E["analysis_records_per_s"] = float64(spanRec) / spanTime.Seconds()
	var sc score
	for _, inc := range incidents {
		h, _ := svc.Job(inc.Job)
		sc.add(inc, h.WorldSize(), svc.Now(), h.Triggers(), h.Reports())
	}
	o.E2E["detect_15s_frac"], o.E2E["rca_20s_frac"] = sc.fractions()
	bigTriggers := len(f.big.Triggers())
	o.check("no trace record lost", after.Lost == 0)
	o.check("records ingested", after.Ingested > before.Ingested)
	o.check("every incident is scorable", sc.Unscorable == 0 && sc.Incidents > 0)

	if cfg.Traced {
		if f.rec != nil {
			err := f.rec.Close()
			o.check("recorder captured cleanly", err == nil)
			f.rec = nil
		}
		o.Layer["sim.events_per_vs"] = float64(dispatched) / virtual.Seconds()
		o.Layer["sim.ns_per_event"] = perUnit(runTime, dispatched)
		o.Layer["sim.alloc_b_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc-pauseAlloc) / float64(max(1, dispatched))
		o.Layer["sim.queue_peak"] = float64(peak)
		after.fill(o)
		o.Layer["clouddb.records"] = float64(after.Ingested - before.Ingested)
		o.Layer["clouddb.shards"] = float64(len(f.big.StoreStats().Shards))
		o.Layer["core.triggers"] = float64(after.Triggers)
		o.Layer["core.reports"] = float64(after.Reports)
		fillServiceHistograms(o, svc)
		fillEvents(o, svc)
		if err := redrive([][]byte{f.art.Bytes()}, o, tr); err != nil {
			return nil, fmt.Errorf("fleet re-drive: %w", err)
		}
	}

	// The kept telemetry goes to fresh, never-started copies of the big
	// job, after the fleet is released so the calls do not share the
	// collector with its heap. Each copy takes the same calls, so the
	// windows are alike.
	f, svc = nil, nil
	runtime.GC()
	copyTriggers := 0
	var c *fleet
	for i := 0; i < latencyWindows; i++ {
		var err error
		if c, err = fleetCopy(cfg); err != nil {
			return nil, err
		}
		for _, p := range posts {
			stats.sendPost(c.svc, p, time.Now(), o, tr)
		}
		copyTriggers += len(c.big.Triggers())
	}
	if err := fillChannelAnomalies(o, c.svc, []mycroft.JobID{fleetJob}); err != nil {
		return nil, err
	}
	stats.fill(o, true, true)
	o.check("fleet job raised no trigger", bigTriggers == 0 && copyTriggers == 0)
	o.Layer["core.false_triggers"] = float64(bigTriggers + copyTriggers + sc.FalseTriggers)

	o.E2E["heap_live_mb"] = heap
	return o, nil
}

// bigJob is the big job's options, the service's default workload for its
// topology; ring overrides the per-host ring slots (0 keeps the default).
func bigJob(s size, ring int) mycroft.JobOptions {
	tc := experiments.JobConfig(mycroft.TopoConfig{Nodes: s.FleetNodes, GPUsPerNode: s.FleetGPUs, TP: s.FleetTP, PP: s.FleetPP, DP: s.FleetDP}, experiments.ComputeHeavy)
	tc.RingCapacity = ring
	return mycroft.JobOptions{Train: &tc, Backend: mycroft.BackendConfig{Window: 15 * time.Second}}
}

// fleetCopy hosts a fresh, never-started copy of the big job, whose
// one-slot host rings never hold a trace record, so a pause can feed the
// kept telemetry to channels that have not seen it.
func fleetCopy(cfg config) (*fleet, error) {
	c := &fleet{svc: mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.Seed})}
	var err error
	c.big, err = c.svc.AddJob(fleetJob, bigJob(cfg.Size, 1))
	return c, err
}

// fleetQueryCycle is the fleet's query cycle: store, span and channel reads
// on the big job; trigger and report reads on the side jobs.
func fleetQueryCycle(rng *rand.Rand, s size, side []incident) []querySpec {
	bigTopo := topoSpec{Nodes: s.FleetNodes, GPUs: s.FleetGPUs}
	big := []incident{{Job: fleetJob, Topo: bigTopo}}
	var cycle []querySpec
	for i := 0; i < cycleRounds; i++ {
		cycle = append(cycle, queryCycle(rng, []string{"trace", "spans", "channels"}, big, false)...)
		cycle = append(cycle, queryCycle(rng, []string{"reports", "triggers"}, side, false)...)
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// liveHeapMB is the heap still live after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
