package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mycroft"
	"mycroft/internal/clouddb"
	"mycroft/internal/sim"
)

// incident-replay: a seeded campaign in the E3 shape — every core fault
// class at a seeded rank after a 15 s warm-up, on 8-, 16- (PP 4) and
// 64-rank topologies. Set-up records each incident once through
// Service.Record; the timed phase re-analyses the artifacts with
// mycroft.Replay in a closed loop. Nothing is simulated in the timed phase,
// so store, dependency-graph, trigger/RCA and artifact-decode changes show
// here and engine or ring changes do not (except in setup_s). Between
// passes, outside the throughput figures, the campaign's telemetry,
// produced while it was recorded, is fed to fresh copies of its jobs and
// one query cycle is answered, both in-process, so every pass does the same
// ingest and query work.

// campaignRing sizes the campaign jobs' host rings. Each host's collector
// drains every 50 ms, far below 4096 slots, so nothing is lost; the small
// ring keeps preallocated trace memory out of this workload's live heap.
const campaignRing = 1 << 12

// campaignHorizon is how long each incident is recorded past its fault:
// both scoring windows close well inside it.
const campaignHorizon = 22 * time.Second

// minPasses is the fewest replay passes a run makes, however short.
const minPasses = 3

// copyRing sizes the host rings of the never-started job copies that take
// the telemetry: they hold no trace record.
const copyRing = 1

type recordedCampaign struct {
	arts [][]byte
	// svc hosted the campaign and stays for the queries; posts is the
	// telemetry its jobs produced while recorded.
	svc   *mycroft.Service
	posts []post
	lost  uint64
}

// recordCampaign runs every incident's job on one service and records each
// through Service.Record until both scoring windows have closed.
func recordCampaign(seed int64, incidents []incident) (*recordedCampaign, error) {
	rc := &recordedCampaign{arts: make([][]byte, len(incidents)), svc: mycroft.NewService(mycroft.ServiceOptions{Seed: seed})}
	bufs := make([]*bytes.Buffer, len(incidents))
	recs := make([]*mycroft.Recorder, len(incidents))
	var horizon time.Duration
	for i, inc := range incidents {
		inc.Topo.ring = campaignRing
		h, err := addIncidentJob(rc.svc, inc)
		if err != nil {
			return nil, err
		}
		tapFeed(h, func(p post) { rc.posts = append(rc.posts, p) })
		bufs[i] = &bytes.Buffer{}
		if recs[i], err = rc.svc.Record(inc.Job, bufs[i]); err != nil {
			return nil, err
		}
		horizon = max(horizon, inc.At+campaignHorizon)
	}
	rc.svc.Start()
	rc.svc.Run(horizon)
	for i, rec := range recs {
		if err := rec.Close(); err != nil {
			return nil, fmt.Errorf("recording %s: %w", rec.Job(), err)
		}
		rc.arts[i] = bufs[i].Bytes()
	}
	rc.lost = countPipeline(rc.svc).Lost
	return rc, nil
}

// channelCopies hosts a fresh, never-started copy of every campaign job, so
// a pass can feed the campaign's telemetry to channels that have not seen
// it; the program has no replay of channel input.
func channelCopies(seed int64, incidents []incident) (*mycroft.Service, error) {
	svc := mycroft.NewService(mycroft.ServiceOptions{Seed: seed})
	for _, inc := range incidents {
		inc.Topo.ring = copyRing
		if _, err := addIncidentJob(svc, inc); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

func runIncidentReplay(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	o := newOutcome("analysis_records_per_s", tr)
	s := cfg.Size
	rng := rand.New(rand.NewSource(cfg.Seed))
	incidents := campaign(rng, "", s.CampaignTopos)
	order := rng.Perm(len(incidents))

	var rc *recordedCampaign
	var setups []float64
	for i := 0; i < s.Setups; i++ {
		rc = nil
		runtime.GC()
		start := time.Now()
		var err error
		if rc, err = recordCampaign(cfg.Seed, incidents); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.E2E["setup_s"] = median(setups)
	o.check("no trace record lost while recording", rc.lost == 0)

	// Throughput counts only the Replay calls and is the median over
	// passes, each one replay of every artifact in seeded order, so a burst
	// of interference from outside the run moves one pass, not the result.
	// The first pass also scores every incident.
	var cycle []querySpec
	for i := 0; i < cycleRounds; i++ {
		cycle = append(cycle, queryCycle(rng, queryKinds, incidents, false)...)
	}
	stats := newClientStats()
	var copies *mycroft.Service
	var (
		sc                 score
		records, passRec   uint64
		passV              time.Duration
		passWall           time.Duration
		triggers, rep      int
		simRates, recRates []float64
	)
	start := time.Now()
	for i := 0; time.Since(start) < cfg.Seconds || i < minPasses*len(order); i++ {
		k := order[i%len(order)]
		var res *mycroft.ReplayResult
		var err error
		passWall += tr.timed("replay", 0, func() {
			res, err = mycroft.Replay(bytes.NewReader(rc.arts[k]), mycroft.ReplayOptions{})
		})
		o.op(err)
		if err == nil {
			o.check("replay reproduces the recorded outcome", mycroft.DiffOutcomes(res.Recorded, res.Replayed).Zero())
			records += res.RecordsIngested
			passRec += res.RecordsIngested
			passV += time.Duration(res.Footer.EndNs - res.Header.StartNs)
			if i < len(order) {
				sc.add(incidents[k], res.Header.WorldSize, time.Duration(res.Footer.EndNs), res.Replayed.Triggers, res.Replayed.Reports)
				triggers += len(res.Replayed.Triggers)
				rep += len(res.Replayed.Reports)
			}
		}
		if (i+1)%len(order) == 0 {
			simRates = append(simRates, passV.Seconds()/passWall.Seconds())
			recRates = append(recRates, float64(passRec)/passWall.Seconds())
			passWall, passRec, passV = 0, 0, 0
			if copies, err = channelCopies(cfg.Seed, incidents); err != nil {
				return nil, err
			}
			for _, p := range rc.posts {
				stats.sendPost(copies, p, time.Now(), o, tr)
			}
			stats.queryInProcess(rc.svc, cycle, len(cycle), o, tr)
		}
	}
	o.E2E["sim_s_per_wall_s"] = median(simRates)
	o.E2E["analysis_records_per_s"] = median(recRates)
	o.E2E["detect_15s_frac"], o.E2E["rca_20s_frac"] = sc.fractions()
	o.check("every incident is scorable", sc.Unscorable == 0 && sc.Incidents == len(incidents))

	stats.fill(o, true, true)
	if err := fillChannelAnomalies(o, copies, incidentJobs(incidents)); err != nil {
		return nil, err
	}

	if cfg.Traced {
		countPipeline(rc.svc).fill(o)
		o.Layer["clouddb.records"] = float64(records)
		o.Layer["clouddb.shards"] = float64(clouddb.New(sim.NewEngine(1), 0).Shards())
		o.Layer["core.triggers"] = float64(triggers)
		o.Layer["core.reports"] = float64(rep)
		o.Layer["core.false_triggers"] = float64(sc.FalseTriggers)
		fillServiceHistograms(o, rc.svc)
		fillEvents(o, rc.svc)
		if err := redrive(rc.arts, o, tr); err != nil {
			return nil, fmt.Errorf("campaign re-drive: %w", err)
		}
	}
	o.E2E["heap_live_mb"] = liveHeapMB()
	runtime.KeepAlive(rc)
	return o, nil
}
