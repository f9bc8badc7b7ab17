package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mycroft/internal/api"
)

// DefaultTraceMirror bounds how many trace records a replica keeps per job.
// The mirror is best-effort context for post-failover spelunking; the event
// log (triggers, reports, actions, health) is the exact record.
const DefaultTraceMirror = 65536

// ReplicaJob is everything a peer holds for one job it follows: the
// replicated event log, the latest coarse snapshot, the trace mirror and
// the handoff/promotion state.
type ReplicaJob struct {
	Job     string
	Primary string
	Log     *EventLog

	mu        sync.Mutex
	snapshot  *api.ClusterSnapshot
	trace     []api.TraceRecord // ascending by (Time, arrival)
	traceWM   int64             // max record Time received
	gaps      uint64            // seq numbers lost in transit, lifetime
	promoted  bool
	lastBatch time.Time // wall clock, liveness only
}

// Snapshot returns the latest replicated coarse state (nil before the
// first batch carrying one).
func (rj *ReplicaJob) Snapshot() *api.ClusterSnapshot {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.snapshot
}

// Promoted reports whether this peer received a handoff for the job.
func (rj *ReplicaJob) Promoted() bool {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.promoted
}

// Gaps reports sequence numbers lost in transit, lifetime.
func (rj *ReplicaJob) Gaps() uint64 {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.gaps
}

// LastBatch is the wall-clock arrival of the latest replication batch.
func (rj *ReplicaJob) LastBatch() time.Time {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.lastBatch
}

// TraceWatermark is the max record Time the mirror has received.
func (rj *ReplicaJob) TraceWatermark() int64 {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.traceWM
}

// Events returns the replicated events in seq order (the full retained log).
func (rj *ReplicaJob) Events() []api.SeqEvent {
	out, _ := rj.Log.TailAfter(0, rj.Log.Len()+1)
	return out
}

// ReplicaStore holds every job this peer follows, keyed by job id. Batches
// arrive over /v1/cluster/replicate; jobs are created on first contact so a
// follower needs no pre-provisioning.
type ReplicaStore struct {
	mu       sync.Mutex
	logCap   int
	traceCap int
	jobs     map[string]*ReplicaJob
}

// NewReplicaStore builds an empty store. logCap/traceCap <= 0 pick the
// package defaults.
func NewReplicaStore(logCap, traceCap int) *ReplicaStore {
	if traceCap <= 0 {
		traceCap = DefaultTraceMirror
	}
	return &ReplicaStore{logCap: logCap, traceCap: traceCap, jobs: make(map[string]*ReplicaJob)}
}

// Job returns the replica state for one job, or nil when this peer has
// never received a batch for it.
func (rs *ReplicaStore) Job(id string) *ReplicaJob {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.jobs[id]
}

// Jobs lists followed job ids, sorted.
func (rs *ReplicaStore) Jobs() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.jobs))
	for id := range rs.jobs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// obtain returns (creating if needed) the job slot. Callers must not hold
// rs.mu.
func (rs *ReplicaStore) obtain(job, primary string) *ReplicaJob {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rj := rs.jobs[job]
	if rj == nil {
		rj = &ReplicaJob{Job: job, Primary: primary, Log: NewEventLog(rs.logCap)}
		rs.jobs[job] = rj
	}
	return rj
}

// Apply ingests one replication batch and returns the ack the sender uses
// as its next cursor.
func (rs *ReplicaStore) Apply(req api.ReplicateRequest) api.ReplicateResponse {
	if req.Job == "" {
		return api.ReplicateResponse{}
	}
	rj := rs.obtain(req.Job, req.From)
	gap := rj.Log.AppendEntries(req.Entries)

	rj.mu.Lock()
	defer rj.mu.Unlock()
	rj.gaps += gap
	rj.lastBatch = time.Now()
	if req.Snapshot != nil {
		snap := *req.Snapshot
		rj.snapshot = &snap
	}
	for _, r := range req.Trace {
		if r.TimeNs > rj.traceWM {
			rj.traceWM = r.TimeNs
		}
		rj.trace = append(rj.trace, r)
	}
	if over := len(rj.trace) - rs.traceCap; over > 0 {
		rj.trace = append(rj.trace[:0], rj.trace[over:]...)
	}
	if req.TraceWatermarkNs > rj.traceWM {
		rj.traceWM = req.TraceWatermarkNs
	}
	return api.ReplicateResponse{AckSeq: rj.Log.Watermark(), TraceAckNs: rj.traceWM, Gap: gap}
}

// Promote records a handoff: this peer now answers authoritatively for the
// job. It returns the lag (entries the departing primary had that this peer
// does not) — 0 after a clean final flush.
func (rs *ReplicaStore) Promote(job, from string, primaryWatermark uint64) (lag uint64, err error) {
	rj := rs.Job(job)
	if rj == nil {
		// A handoff for a job never replicated here still succeeds — the
		// follower can only serve what it has (nothing), but refusing would
		// strand the draining primary.
		rj = rs.obtain(job, from)
	}
	rj.mu.Lock()
	defer rj.mu.Unlock()
	rj.promoted = true
	if wm := rj.Log.Watermark(); primaryWatermark > wm {
		lag = primaryWatermark - wm
	}
	return lag, nil
}

// ---------------------------------------------------------------------------
// Wire-level query evaluation over replicated state.
//
// A replica answers the paged query endpoints for jobs it follows by
// deriving results from the event log (triggers, reports, remediations) and
// the trace mirror. The filters mirror the service-side query layer's
// semantics on the wire forms; pagination clamps negatives exactly like the
// in-process paginate helper.

// Page normalizes offset/limit over n matches and returns the page
// bounds plus the NextOffset convention (-1 when the page exhausts them).
func Page(n, offset, limit int) (lo, hi, next int) {
	if offset < 0 {
		offset = 0
	}
	if offset > n {
		offset = n
	}
	hi = n
	if limit > 0 && offset+limit < n {
		hi = offset + limit
	}
	next = -1
	if hi < n {
		next = hi
	}
	return offset, hi, next
}

// inWindow applies the [from, to] wire time window; to 0 = unbounded.
func inWindow(atNs, fromNs, toNs int64) bool {
	if atNs < fromNs {
		return false
	}
	if toNs > 0 && atNs > toNs {
		return false
	}
	return true
}

// QueryTriggers derives a TriggersResponse from the replicated event log.
func (rj *ReplicaJob) QueryTriggers(req api.TriggersRequest) api.TriggersResponse {
	var all []api.JobTrigger
	for _, se := range rj.Events() {
		e := se.Event
		if e.Trigger == nil {
			continue
		}
		t := *e.Trigger
		if len(req.Kinds) > 0 && !slices.Contains(req.Kinds, t.Kind) {
			continue
		}
		if len(req.Ranks) > 0 && !slices.Contains(req.Ranks, t.Rank) {
			continue
		}
		if !inWindow(t.AtNs, req.FromNs, req.ToNs) {
			continue
		}
		all = append(all, api.JobTrigger{Job: rj.Job, Trigger: t})
	}
	lo, hi, next := Page(len(all), req.Offset, req.Limit)
	return api.TriggersResponse{Triggers: all[lo:hi], Total: len(all), NextOffset: next}
}

// QueryReports derives a ReportsResponse from the replicated event log.
func (rj *ReplicaJob) QueryReports(req api.ReportsRequest) api.ReportsResponse {
	var all []api.JobReport
	for _, se := range rj.Events() {
		e := se.Event
		if e.Report == nil {
			continue
		}
		r := *e.Report
		if len(req.Suspects) > 0 && !slices.Contains(req.Suspects, r.Suspect) {
			continue
		}
		if len(req.Categories) > 0 && !slices.Contains(req.Categories, r.Category) {
			continue
		}
		if req.Comm != 0 && r.CommID != req.Comm {
			continue
		}
		if !inWindow(r.AnalyzedAtNs, req.FromNs, req.ToNs) {
			continue
		}
		all = append(all, api.JobReport{Job: rj.Job, Report: r})
	}
	lo, hi, next := Page(len(all), req.Offset, req.Limit)
	return api.ReportsResponse{Reports: all[lo:hi], Total: len(all), NextOffset: next}
}

// QueryRemediations derives a RemediationsResponse from the event log.
func (rj *ReplicaJob) QueryRemediations(req api.RemediationsRequest) api.RemediationsResponse {
	var all []api.JobAttempt
	for _, se := range rj.Events() {
		e := se.Event
		if e.Action == nil {
			continue
		}
		a := *e.Action
		if len(req.Ranks) > 0 && !slices.Contains(req.Ranks, a.Action.Rank) {
			continue
		}
		if len(req.Actions) > 0 && !slices.Contains(req.Actions, a.Action.Kind) {
			continue
		}
		if len(req.Outcomes) > 0 && !slices.Contains(req.Outcomes, a.Outcome) {
			continue
		}
		if !inWindow(a.ReportedAtNs, req.FromNs, req.ToNs) {
			continue
		}
		all = append(all, api.JobAttempt{Job: rj.Job, Attempt: a})
	}
	lo, hi, next := Page(len(all), req.Offset, req.Limit)
	return api.RemediationsResponse{Attempts: all[lo:hi], Total: len(all), NextOffset: next}
}

// QueryTrace answers from the trace mirror. The mirror has no cursor
// support: pages are Limit-bounded prefixes and Next is always nil, which
// the response's Total makes visible. One pass under the lock counts Total
// and copies out only the page, never the whole matching mirror.
func (rj *ReplicaJob) QueryTrace(req api.TraceRequest) api.TraceResponse {
	resp := api.TraceResponse{Job: rj.Job}
	rj.mu.Lock()
	defer rj.mu.Unlock()
	for i := range rj.trace {
		r := &rj.trace[i]
		if len(req.Ranks) > 0 && !slices.Contains(req.Ranks, r.Rank) ||
			req.Comm != 0 && r.CommID != req.Comm ||
			len(req.Kinds) > 0 && !slices.Contains(req.Kinds, r.Kind) ||
			!inWindow(r.TimeNs, req.FromNs, req.ToNs) {
			continue
		}
		resp.Total++
		if req.Limit <= 0 || len(resp.Records) < req.Limit {
			resp.Records = append(resp.Records, *r)
		}
	}
	return resp
}

// Describe renders this replica slot as a ClusterJob row.
func (rj *ReplicaJob) Describe() api.ClusterJob {
	return api.ClusterJob{
		ID: rj.Job, Replicated: true, Promoted: rj.Promoted(), Watermark: rj.Log.Watermark(),
	}
}

func (rj *ReplicaJob) String() string {
	return fmt.Sprintf("replica[%s] wm=%d gaps=%d promoted=%v", rj.Job, rj.Log.Watermark(), rj.Gaps(), rj.Promoted())
}
