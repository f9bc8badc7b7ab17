package mycroft

// Domain ↔ wire conversions shared by the two transport endpoints: the
// Server adapter (wire request in, domain query out, domain result in, wire
// response out) and the RemoteClient (the exact inverse). Keeping both
// directions in one file makes a wire-breaking asymmetry a local diff.

import (
	"time"

	"mycroft/internal/api"
	"mycroft/internal/core"
	"mycroft/internal/remedy"
	"mycroft/internal/sim"
)

func ranksToInts(rs []Rank) []int {
	if rs == nil {
		return nil
	}
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r)
	}
	return out
}

func intsToRanks(is []int) []Rank {
	if is == nil {
		return nil
	}
	out := make([]Rank, len(is))
	for i, v := range is {
		out[i] = Rank(v)
	}
	return out
}

func jobsToStrings(ids []JobID) []string {
	if ids == nil {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func stringsToJobs(ss []string) []JobID {
	if ss == nil {
		return nil
	}
	out := make([]JobID, len(ss))
	for i, s := range ss {
		out[i] = JobID(s)
	}
	return out
}

// --- trace ---

func traceCursorToWire(c *TraceCursor) *api.TraceCursor {
	if c == nil {
		return nil
	}
	return &api.TraceCursor{Rank: int(c.Rank), TimeNs: int64(c.Time), Emitted: c.Emitted}
}

func traceCursorFromWire(c *api.TraceCursor) *TraceCursor {
	if c == nil {
		return nil
	}
	return &TraceCursor{Rank: Rank(c.Rank), Time: sim.Time(c.TimeNs), Emitted: c.Emitted}
}

func traceQueryToWire(q TraceQuery) api.TraceRequest {
	req := api.TraceRequest{
		Job: string(q.Job), Ranks: ranksToInts(q.Ranks), Comm: q.Comm,
		FromNs: int64(q.From), ToNs: int64(q.To), Limit: q.Limit,
		Cursor: traceCursorToWire(q.Cursor),
	}
	for _, k := range q.Kinds {
		req.Kinds = append(req.Kinds, api.RecordKindName(k))
	}
	return req
}

func traceQueryFromWire(req api.TraceRequest) (TraceQuery, error) {
	q := TraceQuery{
		Job: JobID(req.Job), Ranks: intsToRanks(req.Ranks), Comm: req.Comm,
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Limit: req.Limit,
		Cursor: traceCursorFromWire(req.Cursor),
	}
	for _, s := range req.Kinds {
		k, err := api.ParseRecordKind(s)
		if err != nil {
			return TraceQuery{}, err
		}
		q.Kinds = append(q.Kinds, k)
	}
	return q, nil
}

func traceResultToWire(res TraceResult) api.TraceResponse {
	resp := api.TraceResponse{Job: string(res.Job), Total: res.Total, Next: traceCursorToWire(res.Next)}
	for _, r := range res.Records {
		resp.Records = append(resp.Records, api.FromRecord(r))
	}
	return resp
}

func traceResultFromWire(resp api.TraceResponse) (TraceResult, error) {
	res := TraceResult{Job: JobID(resp.Job), Total: resp.Total, Next: traceCursorFromWire(resp.Next)}
	if len(resp.Records) > 0 {
		res.Records = make([]TraceRecord, 0, len(resp.Records))
	}
	for _, r := range resp.Records {
		rec, err := r.Record()
		if err != nil {
			return TraceResult{}, err
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// --- triggers ---

func triggerQueryToWire(q TriggerQuery) api.TriggersRequest {
	req := api.TriggersRequest{
		Jobs: jobsToStrings(q.Jobs), Ranks: ranksToInts(q.Ranks),
		FromNs: int64(q.From), ToNs: int64(q.To), Offset: q.Offset, Limit: q.Limit,
	}
	for _, k := range q.Kinds {
		req.Kinds = append(req.Kinds, api.TriggerKindName(k))
	}
	return req
}

func triggerQueryFromWire(req api.TriggersRequest) (TriggerQuery, error) {
	q := TriggerQuery{
		Jobs: stringsToJobs(req.Jobs), Ranks: intsToRanks(req.Ranks),
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Offset: req.Offset, Limit: req.Limit,
	}
	for _, s := range req.Kinds {
		k, err := api.ParseTriggerKind(s)
		if err != nil {
			return TriggerQuery{}, err
		}
		q.Kinds = append(q.Kinds, k)
	}
	return q, nil
}

func triggerResultToWire(res TriggerResult) api.TriggersResponse {
	resp := api.TriggersResponse{Total: res.Total, NextOffset: res.NextOffset}
	for _, t := range res.Triggers {
		resp.Triggers = append(resp.Triggers, api.JobTrigger{Job: string(t.Job), Trigger: api.FromTrigger(t.Trigger)})
	}
	return resp
}

func triggerResultFromWire(resp api.TriggersResponse) (TriggerResult, error) {
	res := TriggerResult{Total: resp.Total, NextOffset: resp.NextOffset}
	for _, t := range resp.Triggers {
		tr, err := t.Trigger.Trigger()
		if err != nil {
			return TriggerResult{}, err
		}
		res.Triggers = append(res.Triggers, JobTrigger{Job: JobID(t.Job), Trigger: tr})
	}
	return res, nil
}

// --- reports ---

func reportQueryToWire(q ReportQuery) api.ReportsRequest {
	req := api.ReportsRequest{
		Jobs: jobsToStrings(q.Jobs), Suspects: ranksToInts(q.Suspects), Comm: q.Comm,
		FromNs: int64(q.From), ToNs: int64(q.To), Offset: q.Offset, Limit: q.Limit,
	}
	for _, c := range q.Categories {
		req.Categories = append(req.Categories, string(c))
	}
	return req
}

func reportQueryFromWire(req api.ReportsRequest) ReportQuery {
	q := ReportQuery{
		Jobs: stringsToJobs(req.Jobs), Suspects: intsToRanks(req.Suspects), Comm: req.Comm,
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Offset: req.Offset, Limit: req.Limit,
	}
	for _, s := range req.Categories {
		q.Categories = append(q.Categories, core.Category(s))
	}
	return q
}

func reportResultToWire(res ReportResult) api.ReportsResponse {
	resp := api.ReportsResponse{Total: res.Total, NextOffset: res.NextOffset}
	for _, r := range res.Reports {
		resp.Reports = append(resp.Reports, api.JobReport{Job: string(r.Job), Report: api.FromReport(r.Report)})
	}
	return resp
}

func reportResultFromWire(resp api.ReportsResponse) (ReportResult, error) {
	res := ReportResult{Total: resp.Total, NextOffset: resp.NextOffset}
	for _, r := range resp.Reports {
		rep, err := r.Report.Report()
		if err != nil {
			return ReportResult{}, err
		}
		res.Reports = append(res.Reports, JobReport{Job: JobID(r.Job), Report: rep})
	}
	return res, nil
}

// --- dependencies ---

func dependencyQueryToWire(q DependencyQuery) api.DependenciesRequest {
	return api.DependenciesRequest{Job: string(q.Job), Comm: q.Comm, Ranks: ranksToInts(q.Ranks), RenderDOT: q.RenderDOT}
}

func dependencyQueryFromWire(req api.DependenciesRequest) DependencyQuery {
	return DependencyQuery{Job: JobID(req.Job), Comm: req.Comm, Ranks: intsToRanks(req.Ranks), RenderDOT: req.RenderDOT}
}

func dependencyResultToWire(res DependencyResult) api.DependenciesResponse {
	resp := api.DependenciesResponse{Job: string(res.Job), DOT: res.DOT}
	for _, e := range res.Edges {
		resp.Edges = append(resp.Edges, api.FromEdge(e))
	}
	return resp
}

func dependencyResultFromWire(resp api.DependenciesResponse) (DependencyResult, error) {
	res := DependencyResult{Job: JobID(resp.Job), DOT: resp.DOT}
	for _, e := range resp.Edges {
		edge, err := e.Edge()
		if err != nil {
			return DependencyResult{}, err
		}
		res.Edges = append(res.Edges, edge)
	}
	return res, nil
}

// --- remediations ---

func remediationQueryToWire(q RemediationQuery) api.RemediationsRequest {
	req := api.RemediationsRequest{
		Jobs: jobsToStrings(q.Jobs), Ranks: ranksToInts(q.Ranks),
		FromNs: int64(q.From), ToNs: int64(q.To), Offset: q.Offset, Limit: q.Limit,
	}
	for _, a := range q.Actions {
		req.Actions = append(req.Actions, string(a))
	}
	for _, o := range q.Outcomes {
		req.Outcomes = append(req.Outcomes, string(o))
	}
	return req
}

func remediationQueryFromWire(req api.RemediationsRequest) (RemediationQuery, error) {
	q := RemediationQuery{
		Jobs: stringsToJobs(req.Jobs), Ranks: intsToRanks(req.Ranks),
		From: time.Duration(req.FromNs), To: time.Duration(req.ToNs), Offset: req.Offset, Limit: req.Limit,
	}
	for _, s := range req.Actions {
		a, err := api.ParseActionKind(s)
		if err != nil {
			return RemediationQuery{}, err
		}
		q.Actions = append(q.Actions, a)
	}
	for _, s := range req.Outcomes {
		o, err := api.ParseOutcome(s)
		if err != nil {
			return RemediationQuery{}, err
		}
		q.Outcomes = append(q.Outcomes, o)
	}
	return q, nil
}

func remediationResultToWire(res RemediationResult) api.RemediationsResponse {
	resp := api.RemediationsResponse{Total: res.Total, NextOffset: res.NextOffset}
	for _, a := range res.Attempts {
		resp.Attempts = append(resp.Attempts, api.JobAttempt{Job: string(a.Job), Attempt: api.FromAttempt(a.RemedyAttempt)})
	}
	return resp
}

func remediationResultFromWire(resp api.RemediationsResponse) (RemediationResult, error) {
	res := RemediationResult{Total: resp.Total, NextOffset: resp.NextOffset}
	for _, a := range resp.Attempts {
		att, err := a.Attempt.Attempt()
		if err != nil {
			return RemediationResult{}, err
		}
		res.Attempts = append(res.Attempts, JobRemediation{Job: JobID(a.Job), RemedyAttempt: att})
	}
	return res, nil
}

// --- spans ---

func spanResultFromWire(resp api.SpansResponse) SpanResult {
	res := SpanResult{Job: JobID(resp.Job), Total: resp.Total, Dropped: resp.Dropped}
	for _, s := range resp.Spans {
		res.Spans = append(res.Spans, s.Span())
	}
	return res
}

// --- jobs ---

func jobsResultToWire(res JobsResult) api.JobsResponse {
	resp := api.JobsResponse{NowNs: int64(res.Now)}
	for _, j := range res.Jobs {
		resp.Jobs = append(resp.Jobs, api.JobInfo{
			ID: string(j.ID), WorldSize: j.WorldSize, Iterations: j.Iterations,
			Records: j.Records, Store: api.FromStats(j.Store),
			Isolated: ranksToInts(j.Isolated), Policy: j.Policy, Source: j.Source,
		})
	}
	return resp
}

func jobsResultFromWire(resp api.JobsResponse) JobsResult {
	res := JobsResult{Now: time.Duration(resp.NowNs)}
	for _, j := range resp.Jobs {
		res.Jobs = append(res.Jobs, JobInfo{
			ID: JobID(j.ID), WorldSize: j.WorldSize, Iterations: j.Iterations,
			Records: j.Records, Store: j.Store.Stats(),
			Isolated: intsToRanks(j.Isolated), Policy: j.Policy, Source: j.Source,
		})
	}
	return res
}

// --- health ---

func healthChangeToWire(c HealthChange) api.HealthChange {
	return api.HealthChange{
		From: string(c.From), To: string(c.To),
		LastIngestNs: int64(c.LastIngest), Reason: c.Reason,
	}
}

func healthChangeFromWire(w api.HealthChange) (HealthChange, error) {
	from, err := api.ParseHealthState(w.From)
	if err != nil {
		return HealthChange{}, err
	}
	to, err := api.ParseHealthState(w.To)
	if err != nil {
		return HealthChange{}, err
	}
	return HealthChange{
		From: HealthState(from), To: HealthState(to),
		LastIngest: time.Duration(w.LastIngestNs), Reason: w.Reason,
	}, nil
}

func healthResultToWire(res HealthResult) api.HealthResponse {
	resp := api.HealthResponse{
		NowNs: int64(res.Now), UptimeMs: res.Uptime.Milliseconds(),
		Server: res.Server, Version: api.Version,
		Subscriptions: api.SubscriptionStats{
			Active: res.Subs.Active, Delivered: res.Subs.Delivered, Dropped: res.Subs.Dropped,
		},
	}
	for _, j := range res.Jobs {
		resp.Jobs = append(resp.Jobs, api.JobHealthInfo{
			Job: string(j.Job), State: string(j.State),
			SinceNs: int64(j.Since), LastIngestNs: int64(j.LastIngest), Reason: j.Reason,
		})
	}
	return resp
}

func healthResultFromWire(resp api.HealthResponse) (HealthResult, error) {
	res := HealthResult{
		Now: time.Duration(resp.NowNs), Uptime: time.Duration(resp.UptimeMs) * time.Millisecond,
		Server: resp.Server,
		Subs: SubStats{
			Active: resp.Subscriptions.Active, Delivered: resp.Subscriptions.Delivered, Dropped: resp.Subscriptions.Dropped,
		},
	}
	for _, j := range resp.Jobs {
		state, err := api.ParseHealthState(j.State)
		if err != nil {
			return HealthResult{}, err
		}
		res.Jobs = append(res.Jobs, JobHealth{
			Job: JobID(j.Job), State: HealthState(state),
			Since: time.Duration(j.SinceNs), LastIngest: time.Duration(j.LastIngestNs), Reason: j.Reason,
		})
	}
	return res, nil
}

// --- events and filters ---

func eventFilterToWire(f EventFilter) api.EventFilter {
	w := api.EventFilter{
		Jobs: jobsToStrings(f.Jobs), Ranks: ranksToInts(f.Ranks), Victims: ranksToInts(f.Victims),
		MinChain: f.MinChain, FromNs: int64(f.From), ToNs: int64(f.To), Buffer: f.Buffer,
	}
	for _, k := range f.Kinds {
		w.Kinds = append(w.Kinds, api.EventKindName(k))
	}
	for _, c := range f.Categories {
		w.Categories = append(w.Categories, string(c))
	}
	for _, o := range f.Outcomes {
		w.Outcomes = append(w.Outcomes, string(o))
	}
	return w
}

func eventFilterFromWire(w api.EventFilter) (EventFilter, error) {
	f := EventFilter{
		Jobs: stringsToJobs(w.Jobs), Ranks: intsToRanks(w.Ranks), Victims: intsToRanks(w.Victims),
		MinChain: w.MinChain, From: time.Duration(w.FromNs), To: time.Duration(w.ToNs), Buffer: w.Buffer,
	}
	for _, s := range w.Kinds {
		k, err := api.ParseEventKind(s)
		if err != nil {
			return EventFilter{}, err
		}
		f.Kinds = append(f.Kinds, k)
	}
	for _, s := range w.Categories {
		f.Categories = append(f.Categories, core.Category(s))
	}
	for _, s := range w.Outcomes {
		o, err := api.ParseOutcome(s)
		if err != nil {
			return EventFilter{}, err
		}
		f.Outcomes = append(f.Outcomes, remedy.Outcome(o))
	}
	return f, nil
}

func eventToWire(e Event) api.Event {
	w := api.Event{Job: string(e.Job), Kind: api.EventKindName(e.Kind), AtNs: int64(e.At), Phase: e.Phase}
	if e.Trigger != nil {
		t := api.FromTrigger(*e.Trigger)
		w.Trigger = &t
	}
	if e.Report != nil {
		r := api.FromReport(*e.Report)
		w.Report = &r
	}
	if e.Action != nil {
		a := api.FromAttempt(*e.Action)
		w.Action = &a
	}
	if e.Health != nil {
		h := healthChangeToWire(*e.Health)
		w.Health = &h
	}
	if e.LogAnomaly != nil {
		a := api.FromLogAnomaly(*e.LogAnomaly)
		w.LogAnomaly = &a
	}
	return w
}

func eventFromWire(w api.Event) (Event, error) {
	kind, err := api.ParseEventKind(w.Kind)
	if err != nil {
		return Event{}, err
	}
	e := Event{Job: JobID(w.Job), Kind: kind, At: time.Duration(w.AtNs), Phase: w.Phase}
	if w.Trigger != nil {
		t, err := w.Trigger.Trigger()
		if err != nil {
			return Event{}, err
		}
		e.Trigger = &t
	}
	if w.Report != nil {
		r, err := w.Report.Report()
		if err != nil {
			return Event{}, err
		}
		e.Report = &r
	}
	if w.Action != nil {
		a, err := w.Action.Attempt()
		if err != nil {
			return Event{}, err
		}
		e.Action = &a
	}
	if w.Health != nil {
		h, err := healthChangeFromWire(*w.Health)
		if err != nil {
			return Event{}, err
		}
		e.Health = &h
	}
	if w.LogAnomaly != nil {
		a, err := w.LogAnomaly.LogAnomaly()
		if err != nil {
			return Event{}, err
		}
		e.LogAnomaly = &a
	}
	return e, nil
}

// channelStatsToWire converts a ChannelStats answer to its wire form.
func channelStatsToWire(res ChannelStatsResult) api.ChannelsResponse {
	w := api.ChannelsResponse{
		Job: string(res.Job),
		Fusion: api.FusionInfo{
			WindowNs: int64(res.Fusion.Window), LastOutcome: res.Fusion.LastOutcome,
			LastConfidence: res.Fusion.LastConfidence,
		},
	}
	if len(res.Fusion.Outcomes) > 0 {
		w.Fusion.Outcomes = make(map[string]uint64, len(res.Fusion.Outcomes))
		for k, v := range res.Fusion.Outcomes {
			w.Fusion.Outcomes[k] = v
		}
	}
	for _, c := range res.Channels {
		w.Channels = append(w.Channels, api.ChannelInfo{
			Channel: string(c.Channel), Ingested: c.Ingested,
			Anomalies: c.Anomalies, Reports: c.Reports, Templates: c.Templates,
		})
	}
	return w
}

// channelStatsFromWire converts a wire channels response back to the domain.
func channelStatsFromWire(w api.ChannelsResponse) (ChannelStatsResult, error) {
	res := ChannelStatsResult{
		Job: JobID(w.Job),
		Fusion: FusionInfo{
			Window: time.Duration(w.Fusion.WindowNs), LastOutcome: w.Fusion.LastOutcome,
			LastConfidence: w.Fusion.LastConfidence,
			Outcomes:       make(map[string]uint64, len(w.Fusion.Outcomes)),
		},
	}
	for k, v := range w.Fusion.Outcomes {
		res.Fusion.Outcomes[k] = v
	}
	for _, c := range w.Channels {
		m, err := api.ParseModality(c.Channel)
		if err != nil {
			return ChannelStatsResult{}, err
		}
		res.Channels = append(res.Channels, ChannelInfo{
			Channel: m, Ingested: c.Ingested,
			Anomalies: c.Anomalies, Reports: c.Reports, Templates: c.Templates,
		})
	}
	return res, nil
}
