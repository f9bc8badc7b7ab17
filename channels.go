package mycroft

import (
	"errors"
	"fmt"
	"time"

	"mycroft/internal/core"
	"mycroft/internal/logdiag"
	"mycroft/internal/obs"
	"mycroft/internal/otrace"
	"mycroft/internal/perfdiag"
	"mycroft/internal/sim"
)

// Modality names a diagnosis channel (re-exported from core).
type Modality = core.Modality

const (
	// ModalityTracepoint is the paper's 112-byte trace pipeline.
	ModalityTracepoint = core.ModalityTracepoint
	// ModalityLog is the template-clustered training-log channel.
	ModalityLog = core.ModalityLog
	// ModalityPerf is the black-box iteration-timing channel.
	ModalityPerf = core.ModalityPerf
)

// Modalities returns the valid channel set, in canonical order.
func Modalities() []Modality { return core.Modalities() }

// Evidence is one channel's contribution to a fused verdict.
type Evidence = core.Evidence

// FusionConfig tunes evidence fusion (see core.FusionConfig).
type FusionConfig = core.FusionConfig

// Fusion outcomes, for metrics and assertions.
const (
	FusionSingle       = core.FusionSingle
	FusionCorroborated = core.FusionCorroborated
	FusionConflicted   = core.FusionConflicted
)

// Vias for channel-sourced verdicts.
const (
	ViaLogTemplate  = core.ViaLogTemplate
	ViaPerfEnvelope = core.ViaPerfEnvelope
)

// ChannelAnomaly is the payload of an EventLogAnomaly: one channel finding,
// published as it happens (before, and independent of, any report it may
// escalate into).
type ChannelAnomaly = core.LogAnomaly

// LogLine is one structured training-log line on the ingest path. At is
// virtual time; zero means "now".
type LogLine struct {
	Rank  Rank
	At    time.Duration
	Level string // "info", "warn" or "error" (anything else reads as info)
	Text  string
}

// IterationSample is one per-rank iteration-completion timestamp — the only
// signal the black-box perf channel needs.
type IterationSample struct {
	Rank Rank
	Iter int
	At   time.Duration
}

// IngestResult reports one channel ingest batch: how many items were folded
// in and how many anomalies the triggered analysis pass currently sees.
type IngestResult struct {
	Job       JobID
	Accepted  int
	Anomalies int
}

// ChannelInfo is one diagnosis channel's counters inside a
// ChannelStatsResult.
type ChannelInfo struct {
	Channel Modality
	// Ingested counts the channel's native unit: trace records, log lines or
	// timing samples.
	Ingested uint64
	// Anomalies counts channel findings (triggers for the tracepoint channel,
	// published anomalies for log/perf).
	Anomalies uint64
	// Reports counts verdicts this channel delivered (by Via).
	Reports uint64
	// Templates is the live log-template cluster count (log channel only).
	Templates int
}

// FusionInfo summarizes evidence fusion for one job.
type FusionInfo struct {
	Window time.Duration
	// Outcomes counts delivered reports by fusion outcome
	// (single/corroborated/conflicted).
	Outcomes map[string]uint64
	// LastOutcome and LastConfidence describe the most recent report.
	LastOutcome    string
	LastConfidence float64
}

// ChannelStatsResult is the Client.ChannelStats answer: per-channel counters
// in canonical order plus the job's fusion summary.
type ChannelStatsResult struct {
	Job      JobID
	Channels []ChannelInfo
	Fusion   FusionInfo
}

// channelEventInterval rate-limits repeated EventLogAnomaly publication for
// the same finding; channelReportMute rate-limits report escalation per
// channel (an ongoing anomaly is one incident, not one per ingest batch).
const (
	channelEventInterval = 5 * time.Second
	channelReportMute    = 30 * time.Second
)

// jobChannels is one hosted job's non-tracepoint diagnosis state: the two
// detectors, the shared fusion, and the rate-limit/counter bookkeeping.
type jobChannels struct {
	logs   *logdiag.Detector
	perf   *perfdiag.Detector
	fusion *core.Fusion

	lastEvent map[string]time.Duration // anomaly key → last publish time
	muteUntil map[Modality]time.Duration

	logIngested, perfIngested   uint64
	logAnomalies, perfAnomalies uint64
	logReports, perfReports     uint64

	fusionOutcomes map[string]uint64
	lastOutcome    string
	lastConfidence float64

	// Prometheus twins of the counters above (set by registerJobMetrics).
	mIngest, mAnomalies, mReports map[Modality]*obs.Counter
}

func newJobChannels(world int, fusion *core.Fusion) *jobChannels {
	return &jobChannels{
		logs:           logdiag.New(world, logdiag.Config{}),
		perf:           perfdiag.New(world, perfdiag.Config{}),
		fusion:         fusion,
		lastEvent:      make(map[string]time.Duration),
		muteUntil:      make(map[Modality]time.Duration),
		fusionOutcomes: make(map[string]uint64),
	}
}

// registerChannelMetrics attaches the per-channel instrument set, labeled
// {job, channel}.
func (s *Service) registerChannelMetrics(h *JobHandle) {
	jl := obs.L("job", string(h.ID))
	ch := h.channels
	ch.mIngest = make(map[Modality]*obs.Counter)
	ch.mAnomalies = make(map[Modality]*obs.Counter)
	ch.mReports = make(map[Modality]*obs.Counter)
	for _, m := range []Modality{ModalityLog, ModalityPerf} {
		ml := obs.L("channel", string(m))
		ch.mIngest[m] = s.reg.Counter("mycroft_channel_ingest_total",
			"Channel-native items ingested (log lines, timing samples).", jl, ml)
		ch.mAnomalies[m] = s.reg.Counter("mycroft_channel_anomalies_total",
			"Channel anomalies published.", jl, ml)
		ch.mReports[m] = s.reg.Counter("mycroft_channel_reports_total",
			"Verdicts escalated by the channel.", jl, ml)
	}
}

// ErrRankOutOfRange rejects a channel ingest batch that names a rank outside
// the job's world. The whole batch is refused before any of it is applied.
// Test with errors.Is.
var ErrRankOutOfRange = errors.New("rank out of range")

// checkRanks refuses a batch when any item's rank falls outside the job's
// world.
func checkRanks[T any](h *JobHandle, items []T, rank func(T) Rank) error {
	world := h.Job.Cluster.WorldSize()
	for i, it := range items {
		if r := rank(it); r < 0 || int(r) >= world {
			return fmt.Errorf("mycroft: job %q: item %d names rank %d, world size is %d: %w", h.ID, i, r, world, ErrRankOutOfRange)
		}
	}
	return nil
}

// IngestLogs feeds structured training-log lines into a job's log-diagnosis
// channel and runs one analysis pass. It is the tracepoint-free ingest path:
// a job that never emits a single trace record still reaches verdicts (and
// remediation) through here. A batch naming a rank outside the job's world
// is refused whole with ErrRankOutOfRange.
func (s *Service) IngestLogs(job JobID, lines []LogLine) (IngestResult, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return IngestResult{}, err
	}
	if err := checkRanks(h, lines, func(l LogLine) Rank { return l.Rank }); err != nil {
		return IngestResult{}, err
	}
	ch := h.channels
	now := s.Eng.Now()
	for _, l := range lines {
		at := sim.Time(l.At)
		if l.At <= 0 {
			at = now
		}
		ch.logs.Ingest(logdiag.Line{Rank: l.Rank, At: at, Level: l.Level, Text: l.Text})
	}
	ch.logIngested += uint64(len(lines))
	if c := ch.mIngest[ModalityLog]; c != nil {
		c.Add(uint64(len(lines)))
	}
	// Any channel's ingest proves the job is alive: bump the heartbeat
	// watermark the health ladder reads.
	h.lastIngest = s.Now()
	n := h.analyzeLogs(now)
	return IngestResult{Job: h.ID, Accepted: len(lines), Anomalies: n}, nil
}

// IngestTimings feeds per-rank iteration timestamps into a job's black-box
// perf channel and runs one analysis pass. Like IngestLogs, it refuses a
// batch with an out-of-range rank whole.
func (s *Service) IngestTimings(job JobID, samples []IterationSample) (IngestResult, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return IngestResult{}, err
	}
	if err := checkRanks(h, samples, func(s IterationSample) Rank { return s.Rank }); err != nil {
		return IngestResult{}, err
	}
	ch := h.channels
	now := s.Eng.Now()
	for _, smp := range samples {
		at := sim.Time(smp.At)
		if smp.At <= 0 {
			at = now
		}
		ch.perf.Ingest(perfdiag.Sample{Rank: smp.Rank, Iter: smp.Iter, At: at})
	}
	ch.perfIngested += uint64(len(samples))
	if c := ch.mIngest[ModalityPerf]; c != nil {
		c.Add(uint64(len(samples)))
	}
	h.lastIngest = s.Now()
	n := h.analyzePerf(now)
	return IngestResult{Job: h.ID, Accepted: len(samples), Anomalies: n}, nil
}

// analyzeLogs runs one log-channel analysis pass under its pipeline span:
// publish every divergence as an EventLogAnomaly (rate-limited), feed the
// fusion, and escalate the strongest warn/error anomaly into a Report.
func (h *JobHandle) analyzeLogs(now sim.Time) int {
	ch := h.channels
	span := h.tracer.StageAt(otrace.StageLogAnalyze, now)
	anoms := ch.logs.Analyze(now)
	h.tracer.Annotate(span, "", fmt.Sprintf("%d line(s) clustered into %d template(s), %d anomalous",
		ch.logs.Ingested(), ch.logs.Templates(), len(anoms)))
	h.tracer.EndAt(span, now)
	for _, a := range anoms {
		ch.fusion.Observe(Evidence{
			Channel: ModalityLog, Rank: a.Rank, Category: a.Category,
			Score: a.Score, At: now, Detail: a.Template,
		})
		h.publishAnomaly(ChannelAnomaly{
			Channel: ModalityLog, Rank: a.Rank, Ranks: a.Ranks,
			Template: a.Template, Level: a.Level, Count: a.Count, Fleet: a.Fleet,
			Score: a.Score, Category: a.Category, At: now,
		})
	}
	for _, a := range anoms {
		// Info-level chatter never escalates on its own: it corroborates via
		// the fusion but a verdict needs at least a warning.
		if a.Level == "info" {
			continue
		}
		h.escalateLog(a, now)
		break
	}
	return len(anoms)
}

// analyzePerf runs one perf-channel analysis pass under its pipeline span.
func (h *JobHandle) analyzePerf(now sim.Time) int {
	ch := h.channels
	span := h.tracer.StageAt(otrace.StagePerfAnalyze, now)
	finds := ch.perf.Analyze(now)
	h.tracer.Annotate(span, "", fmt.Sprintf("%d sample(s) enveloped, %d finding(s)",
		ch.perf.Ingested(), len(finds)))
	h.tracer.EndAt(span, now)
	for _, f := range finds {
		cat := CatComputeStraggler
		ch.fusion.Observe(Evidence{
			Channel: ModalityPerf, Rank: f.Rank, Category: cat,
			Score: f.Ratio, At: now, Detail: string(f.Kind),
		})
		h.publishAnomaly(ChannelAnomaly{
			Channel: ModalityPerf, Rank: f.Rank, Ranks: f.Ranks,
			Template: string(f.Kind), Level: "warn",
			Count: f.Persisted, Fleet: h.WorldSize(),
			Score: f.Ratio, Category: cat, At: now,
		})
		h.escalatePerf(f, now)
	}
	return len(finds)
}

// publishAnomaly dispatches one EventLogAnomaly, rate-limited per
// (channel, finding, rank) so a persistent anomaly re-announces at most every
// channelEventInterval.
func (h *JobHandle) publishAnomaly(a ChannelAnomaly) {
	ch := h.channels
	key := fmt.Sprintf("%s|%s|%d", a.Channel, a.Template, a.Rank)
	at := time.Duration(a.At)
	if last, ok := ch.lastEvent[key]; ok && at-last < channelEventInterval {
		return
	}
	ch.lastEvent[key] = at
	switch a.Channel {
	case ModalityLog:
		ch.logAnomalies++
	case ModalityPerf:
		ch.perfAnomalies++
	}
	if c := ch.mAnomalies[a.Channel]; c != nil {
		c.Inc()
	}
	h.svc.dispatch(Event{Job: h.ID, Kind: EventLogAnomaly, At: at, LogAnomaly: &a})
}

// channelMuted gates report escalation per channel and arms the mute on
// passage.
func (ch *jobChannels) channelMuted(m Modality, now sim.Time) bool {
	at := time.Duration(now)
	if at < ch.muteUntil[m] {
		return true
	}
	ch.muteUntil[m] = at + channelReportMute
	return false
}

// escalateLog turns one log divergence into a full Report on the standard
// delivery path: subscribers, remediation and cluster replication see it
// exactly like a tracepoint verdict.
func (h *JobHandle) escalateLog(a logdiag.Anomaly, now sim.Time) {
	ch := h.channels
	if ch.channelMuted(ModalityLog, now) {
		return
	}
	ip := h.Job.Cluster.IPOf(a.Rank)
	rep := core.Report{
		Trigger: core.Trigger{
			Kind: core.TriggerFailure, Rank: a.Rank, IP: ip, At: now,
			Reason: fmt.Sprintf("log-template divergence: %q", a.Template),
		},
		Suspect: a.Rank, SuspectIP: ip, Category: a.Category,
		Via: ViaLogTemplate, AnalyzedAt: now,
		Details: fmt.Sprintf("log channel: template %q (%s) concentrated on rank %d (%d/%d in window, score %.2f)",
			a.Template, a.Level, a.Rank, a.Count, a.Fleet, a.Score),
		Chain:   []core.Hop{{Suspect: a.Rank, Via: ViaLogTemplate}},
		Victims: victimsBeside(a.Ranks, a.Rank),
	}
	h.Backend.DeliverExternal(rep, Evidence{
		Channel: ModalityLog, Rank: a.Rank, Category: a.Category,
		Score: a.Score, At: now, Detail: a.Template,
	})
	ch.logReports++
	if c := ch.mReports[ModalityLog]; c != nil {
		c.Inc()
	}
}

// escalatePerf turns one timing-envelope finding into a Report.
func (h *JobHandle) escalatePerf(f perfdiag.Finding, now sim.Time) {
	ch := h.channels
	if ch.channelMuted(ModalityPerf, now) {
		return
	}
	ip := h.Job.Cluster.IPOf(f.Rank)
	rep := core.Report{
		Trigger: core.Trigger{
			Kind: core.TriggerStraggler, Rank: f.Rank, IP: ip, At: now,
			Reason: fmt.Sprintf("timing envelope: %s", f.Kind),
		},
		Suspect: f.Rank, SuspectIP: ip, Category: CatComputeStraggler,
		Via: ViaPerfEnvelope, AnalyzedAt: now,
		Details: fmt.Sprintf("perf channel: %s on rank %d (median %.3fs vs fleet %.3fs, ×%.2f over %d passes)",
			f.Kind, f.Rank, f.RankMedian, f.FleetMedian, f.Ratio, f.Persisted),
		Chain:   []core.Hop{{Suspect: f.Rank, Via: ViaPerfEnvelope}},
		Victims: victimsBeside(f.Ranks, f.Rank),
	}
	h.Backend.DeliverExternal(rep, Evidence{
		Channel: ModalityPerf, Rank: f.Rank, Category: CatComputeStraggler,
		Score: f.Ratio, At: now, Detail: string(f.Kind),
	})
	ch.perfReports++
	if c := ch.mReports[ModalityPerf]; c != nil {
		c.Inc()
	}
}

// victimsBeside returns the affected set minus the suspect (already sorted by
// the detectors), the Report.Victims convention.
func victimsBeside(ranks []Rank, suspect Rank) []Rank {
	var out []Rank
	for _, r := range ranks {
		if r != suspect {
			out = append(out, r)
		}
	}
	return out
}

// observeFusion audits one delivered report's fusion outcome (the dispatch
// hook). Labels are register-on-demand like remediation outcomes.
func (h *JobHandle) observeFusion(rep Report) {
	ch := h.channels
	out := rep.FusionOutcome()
	ch.fusionOutcomes[out]++
	ch.lastOutcome = out
	ch.lastConfidence = rep.Confidence
	h.svc.reg.Counter("mycroft_fusion_total", "Delivered reports by fusion outcome.",
		obs.L("job", string(h.ID)), obs.L("outcome", out)).Inc()
}

// ChannelStats reports a job's per-channel diagnosis counters and fusion
// summary. Part of the Client interface.
func (s *Service) ChannelStats(job JobID) (ChannelStatsResult, error) {
	h, err := s.resolveJob(job)
	if err != nil {
		return ChannelStatsResult{}, err
	}
	ch := h.channels
	var traceReports, logReports, perfReports uint64
	for _, rep := range h.Backend.Reports() {
		switch rep.Via {
		case ViaLogTemplate:
			logReports++
		case ViaPerfEnvelope:
			perfReports++
		default:
			traceReports++
		}
	}
	res := ChannelStatsResult{
		Job: h.ID,
		Channels: []ChannelInfo{
			{Channel: ModalityTracepoint, Ingested: h.Job.DB.Ingested(),
				Anomalies: uint64(len(h.Backend.Triggers())), Reports: traceReports},
			{Channel: ModalityLog, Ingested: ch.logIngested,
				Anomalies: ch.logAnomalies, Reports: logReports, Templates: ch.logs.Templates()},
			{Channel: ModalityPerf, Ingested: ch.perfIngested,
				Anomalies: ch.perfAnomalies, Reports: perfReports},
		},
		Fusion: FusionInfo{
			Window:         ch.fusion.Config().Window,
			Outcomes:       make(map[string]uint64, len(ch.fusionOutcomes)),
			LastOutcome:    ch.lastOutcome,
			LastConfidence: ch.lastConfidence,
		},
	}
	for k, v := range ch.fusionOutcomes {
		res.Fusion.Outcomes[k] = v
	}
	return res, nil
}
