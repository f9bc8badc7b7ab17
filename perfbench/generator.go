package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mycroft"
	"mycroft/internal/experiments"
	"mycroft/internal/faults"
)

// The seeded generator. Everything a workload feeds the program — fault
// class, rank and time of each incident, the topology it runs on, the
// closed-loop query order and the engine seed of every simulated job, whose
// iterations drive the ingest traffic (feed.go) — derives from the --seed
// argument here. The program only ever sees the generated inputs.

// topoSpec is one job shape. Window, when set, widens the trigger
// look-back as the large-64 builtin does: iterations on deep pipelines run
// long enough that the 5 s default reads warm-up cadence as failure.
type topoSpec struct {
	Name                    string
	Nodes, GPUs, TP, PP, DP int
	Window                  time.Duration
	// PerClass is how many incidents of each fault class a campaign puts
	// on this topology.
	PerClass int
	// ring overrides the per-host ring slots (0 keeps the default).
	ring int
}

func (t topoSpec) topo() mycroft.TopoConfig {
	return mycroft.TopoConfig{Nodes: t.Nodes, GPUsPerNode: t.GPUs, TP: t.TP, PP: t.PP, DP: t.DP}
}

func (t topoSpec) world() int { return t.Nodes * t.GPUs }

var smallTopo = topoSpec{Name: "8", Nodes: 2, GPUs: 4, TP: 2, PP: 2, DP: 2, PerClass: 1}

// warmup is the healthy period before every injected fault (§7.1).
const warmup = 15 * time.Second

// Scoring horizons of the paper's two latency claims.
const (
	detectWithin = 15 * time.Second
	rcaWithin    = 20 * time.Second
)

// incident is one injected fault with its ground truth.
type incident struct {
	Job  mycroft.JobID
	Topo topoSpec
	Kind mycroft.FaultKind
	Rank mycroft.Rank
	At   time.Duration
}

// campaign draws PerClass incidents per core fault class on each topology.
// The draw is stratified so every seed yields a like mix: a class's
// incidents hit distinct seeded ranks, and their instants past the warm-up
// are spread evenly over 3 s from a seeded phase.
func campaign(rng *rand.Rand, prefix string, topos []topoSpec) []incident {
	const spread = 3 * time.Second
	var out []incident
	for _, t := range topos {
		m := max(1, t.PerClass)
		for _, k := range faults.CoreSeven() {
			ranks := rng.Perm(t.world())
			phase := rng.Float64()
			for j := 0; j < m; j++ {
				frac := math.Mod(phase+float64(j)/float64(m), 1)
				out = append(out, incident{
					Job:  mycroft.JobID(fmt.Sprintf("%s%s-%s-%d", prefix, t.Name, k, j)),
					Topo: t, Kind: k,
					Rank: mycroft.Rank(ranks[j%len(ranks)]),
					At:   warmup + time.Duration(frac*float64(spread)).Truncate(time.Millisecond),
				})
			}
		}
	}
	return out
}

// addIncidentJob hosts the incident's job with the workload profile and
// severity the paper-shape campaigns use for its class, and schedules the
// fault.
func addIncidentJob(svc *mycroft.Service, inc incident) (*mycroft.JobHandle, error) {
	tc := experiments.JobConfig(inc.Topo.topo(), experiments.ProfileFor(inc.Kind))
	tc.RingCapacity = inc.Topo.ring
	h, err := svc.AddJob(inc.Job, mycroft.JobOptions{Train: &tc, Backend: mycroft.BackendConfig{Window: inc.Topo.Window}})
	if err != nil {
		return nil, err
	}
	h.Inject(mycroft.Fault{Kind: inc.Kind, Rank: inc.Rank, At: inc.At, Severity: experiments.SeverityFor(inc.Kind)})
	return h, nil
}

// score is the paper's two latency fractions over a set of incidents.
type score struct {
	Incidents, Detected, Diagnosed, FalseTriggers int
	// Unscorable counts incidents whose injected rank lies outside the
	// job's world, or whose run ended before the RCA horizon closed.
	Unscorable int
}

// add scores one incident from its job's world size, the virtual time its
// run reached, and its trigger and report streams.
func (s *score) add(inc incident, world int, end time.Duration, trigs []mycroft.Trigger, reps []mycroft.Report) {
	s.Incidents++
	if int(inc.Rank) >= world || end < inc.At+rcaWithin {
		s.Unscorable++
	}
	at := int64(inc.At)
	for _, tr := range trigs {
		if int64(tr.At) < at {
			s.FalseTriggers++
			continue
		}
		if time.Duration(int64(tr.At)-at) <= detectWithin {
			s.Detected++
		}
		break
	}
	for _, rep := range reps {
		if rep.Suspect == inc.Rank && int64(rep.AnalyzedAt) >= at && time.Duration(int64(rep.AnalyzedAt)-at) <= rcaWithin {
			s.Diagnosed++
			break
		}
	}
}

func (s score) fractions() (detect, rca float64) {
	if s.Incidents == 0 {
		return 0, 0
	}
	return float64(s.Detected) / float64(s.Incidents), float64(s.Diagnosed) / float64(s.Incidents)
}

// querySpec is one closed-loop request.
type querySpec struct {
	Kind string
	Job  mycroft.JobID
	// Ranks narrows a trace query to one rank (nil on the replica path,
	// whose mirror holds a recent window of the whole job).
	Ranks   []mycroft.Rank
	Replica bool
}

// cycleRounds is how many rounds one query cycle holds: enough that each
// kind meets many targets, so the seeded choice of targets averages out.
const cycleRounds = 200

// queryCycle shuffles one round of requests, kinds × targets, in seeded
// order; the client repeats the round.
func queryCycle(rng *rand.Rand, kinds []string, targets []incident, replica bool) []querySpec {
	var out []querySpec
	for _, k := range kinds {
		t := targets[rng.Intn(len(targets))]
		q := querySpec{Kind: k, Job: t.Job, Replica: replica}
		if k == "trace" && !replica {
			q.Ranks = []mycroft.Rank{mycroft.Rank(rng.Intn(t.Topo.world()))}
		}
		out = append(out, q)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// doQuery issues one request and returns how many items its page holds.
func doQuery(c mycroft.Client, q querySpec) (int, error) {
	switch q.Kind {
	case "reports":
		r, err := c.QueryReports(mycroft.ReportQuery{Jobs: []mycroft.JobID{q.Job}, Limit: 20})
		return len(r.Reports), err
	case "triggers":
		r, err := c.QueryTriggers(mycroft.TriggerQuery{Jobs: []mycroft.JobID{q.Job}, Limit: 20})
		return len(r.Triggers), err
	case "trace":
		r, err := c.QueryTrace(mycroft.TraceQuery{Job: q.Job, Ranks: q.Ranks, Limit: 100})
		return len(r.Records), err
	case "spans":
		r, err := c.QuerySpans(mycroft.SpanQuery{Job: q.Job, Limit: 50})
		return len(r.Spans), err
	case "channels":
		r, err := c.ChannelStats(q.Job)
		return len(r.Channels), err
	}
	return 0, fmt.Errorf("unknown query kind %q", q.Kind)
}

func incidentJobs(incs []incident) []mycroft.JobID {
	out := make([]mycroft.JobID, len(incs))
	for i, inc := range incs {
		out[i] = inc.Job
	}
	return out
}
