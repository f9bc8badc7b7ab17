package mycroft

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mycroft/internal/api"
)

// ErrUnreachable marks a dial (or cluster route) that exhausted its
// connection retries: every attempt was refused, reset or timed out at the
// transport layer. Test with errors.Is.
var ErrUnreachable = errors.New("daemon unreachable")

// ErrSubscriptionLost marks a subscription whose server-side half is gone
// for good — typically the daemon restarted and wiped its subscription
// table. The stream closes with this as its Err; resubscribe to continue.
// Test with errors.Is.
var ErrSubscriptionLost = errors.New("subscription lost")

// RemoteClient is the Client implementation that speaks the /v1 wire
// protocol to a mycroft-serve daemon. Every query converts to the versioned
// wire form, crosses HTTP, and converts back, so code written against
// Client runs unchanged in-process or remote. Subscriptions are fed by a
// background long-poller into the same *Stream type the in-process Service
// hands out; transport failures close the stream and surface via
// Stream.Err.
type RemoteClient struct {
	base string
	hc   *http.Client

	// serverID and serverStarted are captured from the dial-time ping so
	// callers can log what they connected to.
	serverID      string
	serverStarted time.Time
}

// DialOption tunes Dial's connection-retry behavior.
type DialOption func(*dialConfig)

type dialConfig struct {
	attempts  int
	baseDelay time.Duration
	maxDelay  time.Duration
}

// DialAttempts sets how many connection attempts Dial makes before giving
// up with ErrUnreachable (default 4; minimum 1). Only refused/reset/timeout
// transport errors are retried — a daemon that answers with the wrong wire
// version fails immediately.
func DialAttempts(n int) DialOption {
	return func(c *dialConfig) {
		if n >= 1 {
			c.attempts = n
		}
	}
}

// normalizeBase turns "host:port" or an http URL into a canonical base URL.
func normalizeBase(addr string) string {
	base := addr
	if base == "" {
		return ""
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/")
}

// isTransportErr reports whether err is a connection-layer failure
// (refused, reset, dial timeout) rather than an application answer —
// exactly the class worth retrying or failing over.
func isTransportErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	// A peer dying mid-request surfaces as a bare EOF on the reused
	// connection — as much "unreachable" as a refused dial.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ue *url.Error
	if errors.As(err, &ue) && ue.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// Dial connects to a daemon at addr ("host:port" or a full http:// URL),
// verifying the wire-protocol version via /v1/ping. Refused or reset
// connections are retried with capped exponential backoff (a daemon that is
// still binding its port wins the race within a few attempts); exhausting
// the retries returns an error wrapping ErrUnreachable.
func Dial(addr string, opts ...DialOption) (*RemoteClient, error) {
	cfg := dialConfig{attempts: 4, baseDelay: 50 * time.Millisecond, maxDelay: time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	c := &RemoteClient{base: normalizeBase(addr), hc: &http.Client{Timeout: 60 * time.Second}}
	var ping api.PingResponse
	var err error
	delay := cfg.baseDelay
	for attempt := 1; ; attempt++ {
		err = c.get(api.Prefix+"/ping", &ping)
		if err == nil {
			break
		}
		if !isTransportErr(err) || attempt >= cfg.attempts {
			if isTransportErr(err) {
				return nil, fmt.Errorf("mycroft: dialing %s (%d attempts): %w: %v", addr, attempt, ErrUnreachable, err)
			}
			return nil, fmt.Errorf("mycroft: dialing %s: %w", addr, err)
		}
		time.Sleep(delay)
		if delay *= 2; delay > cfg.maxDelay {
			delay = cfg.maxDelay
		}
	}
	if ping.Version != api.Version {
		return nil, fmt.Errorf("mycroft: daemon at %s speaks wire version %d, this client speaks %d", addr, ping.Version, api.Version)
	}
	c.serverID = ping.Server
	if ping.StartedUnixNs != 0 {
		c.serverStarted = time.Unix(0, ping.StartedUnixNs)
	}
	return c, nil
}

// ServerInfo reports the daemon identity and wall-clock start time captured
// at dial; identity is "" (and start zero) against a daemon predating them.
func (c *RemoteClient) ServerInfo() (string, time.Time) {
	return c.serverID, c.serverStarted
}

// Health implements Client over the wire. Uptime and Server come filled by
// the daemon, unlike the in-process Service where both are zero.
func (c *RemoteClient) Health() (HealthResult, error) {
	var resp api.HealthResponse
	if err := c.get(api.Prefix+"/health", &resp); err != nil {
		return HealthResult{}, err
	}
	return healthResultFromWire(resp)
}

// Now returns the daemon's current virtual time.
func (c *RemoteClient) Now() (time.Duration, error) {
	var ping api.PingResponse
	if err := c.get(api.Prefix+"/ping", &ping); err != nil {
		return 0, err
	}
	return time.Duration(ping.NowNs), nil
}

// ListJobs describes every job the daemon hosts.
func (c *RemoteClient) ListJobs() (JobsResult, error) {
	var resp api.JobsResponse
	if err := c.get(api.Prefix+"/jobs", &resp); err != nil {
		return JobsResult{}, err
	}
	return jobsResultFromWire(resp), nil
}

// QueryTrace implements Client over the wire.
func (c *RemoteClient) QueryTrace(q TraceQuery) (TraceResult, error) {
	body, err := c.postBody(api.Prefix+"/trace/query", traceQueryToWire(q))
	if err != nil {
		return TraceResult{}, err
	}
	resp, err := api.DecodeTraceResponse(body)
	if err != nil {
		return TraceResult{}, err
	}
	return traceResultFromWire(resp)
}

// QueryTriggers implements Client over the wire.
func (c *RemoteClient) QueryTriggers(q TriggerQuery) (TriggerResult, error) {
	var resp api.TriggersResponse
	if err := c.post(api.Prefix+"/triggers/query", triggerQueryToWire(q), &resp); err != nil {
		return TriggerResult{}, err
	}
	return triggerResultFromWire(resp)
}

// QueryReports implements Client over the wire.
func (c *RemoteClient) QueryReports(q ReportQuery) (ReportResult, error) {
	var resp api.ReportsResponse
	if err := c.post(api.Prefix+"/reports/query", reportQueryToWire(q), &resp); err != nil {
		return ReportResult{}, err
	}
	return reportResultFromWire(resp)
}

// QueryDependencies implements Client over the wire.
func (c *RemoteClient) QueryDependencies(q DependencyQuery) (DependencyResult, error) {
	var resp api.DependenciesResponse
	if err := c.post(api.Prefix+"/dependencies/query", dependencyQueryToWire(q), &resp); err != nil {
		return DependencyResult{}, err
	}
	return dependencyResultFromWire(resp)
}

// BlastRadius implements Client over the wire.
func (c *RemoteClient) BlastRadius(job JobID, suspect Rank) ([]Rank, error) {
	var resp api.BlastRadiusResponse
	if err := c.post(api.Prefix+"/blast-radius", api.BlastRadiusRequest{Job: string(job), Suspect: int(suspect)}, &resp); err != nil {
		return nil, err
	}
	return intsToRanks(resp.Victims), nil
}

// QueryRemediations implements Client over the wire.
func (c *RemoteClient) QueryRemediations(q RemediationQuery) (RemediationResult, error) {
	var resp api.RemediationsResponse
	if err := c.post(api.Prefix+"/remediations/query", remediationQueryToWire(q), &resp); err != nil {
		return RemediationResult{}, err
	}
	return remediationResultFromWire(resp)
}

// QuerySpans implements Client over the wire: the filters ride the query
// string of GET /v1/jobs/{id}/spans. An empty Job resolves against the
// daemon's job list, mirroring the in-process "sole hosted job" rule.
func (c *RemoteClient) QuerySpans(q SpanQuery) (SpanResult, error) {
	job := string(q.Job)
	if job == "" {
		res, err := c.ListJobs()
		if err != nil {
			return SpanResult{}, err
		}
		if len(res.Jobs) != 1 {
			return SpanResult{}, fmt.Errorf("mycroft: query needs a Job id (daemon hosts %d jobs)", len(res.Jobs))
		}
		job = string(res.Jobs[0].ID)
	}
	params := url.Values{}
	if q.Incident != "" {
		params.Set("incident", q.Incident)
	}
	if q.Stage != "" {
		params.Set("stage", q.Stage)
	}
	if q.AfterID != 0 {
		params.Set("after_id", strconv.FormatUint(uint64(q.AfterID), 10))
	}
	if q.MinWall > 0 {
		params.Set("min_wall_ns", strconv.FormatInt(int64(q.MinWall), 10))
	}
	if q.Limit > 0 {
		params.Set("limit", strconv.Itoa(q.Limit))
	}
	path := api.Prefix + "/jobs/" + url.PathEscape(job) + "/spans"
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp api.SpansResponse
	if err := c.get(path, &resp); err != nil {
		return SpanResult{}, err
	}
	return spanResultFromWire(resp), nil
}

// resolveRemoteJob fills an empty job selector against the daemon's job
// list, mirroring the in-process "sole hosted job" rule.
func (c *RemoteClient) resolveRemoteJob(job JobID) (string, error) {
	if job != "" {
		return string(job), nil
	}
	res, err := c.ListJobs()
	if err != nil {
		return "", err
	}
	if len(res.Jobs) != 1 {
		return "", fmt.Errorf("mycroft: query needs a Job id (daemon hosts %d jobs)", len(res.Jobs))
	}
	return string(res.Jobs[0].ID), nil
}

// IngestLogs implements Client over the wire (POST /v1/jobs/{id}/logs).
func (c *RemoteClient) IngestLogs(job JobID, lines []LogLine) (IngestResult, error) {
	id, err := c.resolveRemoteJob(job)
	if err != nil {
		return IngestResult{}, err
	}
	req := api.LogsRequest{Lines: make([]api.LogLine, 0, len(lines))}
	for _, l := range lines {
		req.Lines = append(req.Lines, api.LogLine{Rank: int(l.Rank), AtNs: int64(l.At), Level: l.Level, Text: l.Text})
	}
	var resp api.IngestChannelResponse
	if err := c.post(api.Prefix+"/jobs/"+url.PathEscape(id)+"/logs", req, &resp); err != nil {
		return IngestResult{}, err
	}
	return IngestResult{Job: JobID(resp.Job), Accepted: resp.Accepted, Anomalies: resp.Anomalies}, nil
}

// IngestTimings implements Client over the wire (POST /v1/jobs/{id}/timings).
func (c *RemoteClient) IngestTimings(job JobID, samples []IterationSample) (IngestResult, error) {
	id, err := c.resolveRemoteJob(job)
	if err != nil {
		return IngestResult{}, err
	}
	req := api.TimingsRequest{Samples: make([]api.TimingSample, 0, len(samples))}
	for _, s := range samples {
		req.Samples = append(req.Samples, api.TimingSample{Rank: int(s.Rank), Iter: s.Iter, AtNs: int64(s.At)})
	}
	var resp api.IngestChannelResponse
	if err := c.post(api.Prefix+"/jobs/"+url.PathEscape(id)+"/timings", req, &resp); err != nil {
		return IngestResult{}, err
	}
	return IngestResult{Job: JobID(resp.Job), Accepted: resp.Accepted, Anomalies: resp.Anomalies}, nil
}

// ChannelStats implements Client over the wire (GET /v1/jobs/{id}/channels).
func (c *RemoteClient) ChannelStats(job JobID) (ChannelStatsResult, error) {
	id, err := c.resolveRemoteJob(job)
	if err != nil {
		return ChannelStatsResult{}, err
	}
	var resp api.ChannelsResponse
	if err := c.get(api.Prefix+"/jobs/"+url.PathEscape(id)+"/channels", &resp); err != nil {
		return ChannelStatsResult{}, err
	}
	return channelStatsFromWire(resp)
}

// Triage implements Client over the wire.
func (c *RemoteClient) Triage(job JobID) (TriageResult, error) {
	var resp api.TriageResponse
	if err := c.post(api.Prefix+"/triage", api.TriageRequest{Job: string(job)}, &resp); err != nil {
		return TriageResult{}, err
	}
	return TriageResult{Job: JobID(resp.Job), Source: resp.Source, Rank: Rank(resp.Rank), Summary: resp.Summary, OK: resp.OK}, nil
}

// FetchRecord streams a job's incident artifact snapshot from the daemon
// into w. The bytes are a valid (possibly footer-less) artifact as of the
// daemon's current virtual instant, ready for mycroft.Replay. Unlike query
// responses, the download is unbounded — artifacts from long runs can exceed
// the JSON response cap by design.
func (c *RemoteClient) FetchRecord(job JobID, w io.Writer) error {
	path := api.Prefix + "/jobs/" + string(job) + "/record"
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var we api.ErrorResponse
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			return fmt.Errorf("%s", we.Error)
		}
		return fmt.Errorf("mycroft: %s: HTTP %d", path, resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Subscribe creates a server-side subscription and returns a Stream fed by
// a background long-poller. Creation failures come back as an
// already-closed stream whose Err explains why — so the streaming-cursor
// call shape stays identical to the in-process Service.
func (c *RemoteClient) Subscribe(f EventFilter) *Stream {
	st := newStream(nil, f)
	var resp api.SubscribeResponse
	if err := c.post(api.Prefix+"/subscribe", api.SubscribeRequest{Filter: eventFilterToWire(f)}, &resp); err != nil {
		st.fail(err)
		return st
	}
	st.onClose = func() { c.unsubscribe(resp.ID) }
	go c.pollLoop(resp.ID, st)
	return st
}

// pollLoop drains the server-side subscription into the local stream until
// either side closes.
func (c *RemoteClient) pollLoop(id string, st *Stream) {
	for {
		if st.isClosed() {
			return
		}
		var resp api.PollResponse
		if err := c.post(api.Prefix+"/poll", api.PollRequest{ID: id, TimeoutMs: 1000, Max: 256}, &resp); err != nil {
			st.fail(err)
			return
		}
		for _, we := range resp.Events {
			e, err := eventFromWire(we)
			if err != nil {
				st.fail(err)
				return
			}
			st.deliver(e)
		}
		st.setRemoteDropped(resp.Dropped)
		if resp.Lost {
			// The server does not know this ID at all — a restart wiped it.
			// Unlike a clean Closed there is nothing left to drain; surface
			// the typed error so callers know to resubscribe.
			st.fail(fmt.Errorf("mycroft: subscription %s: %w", id, ErrSubscriptionLost))
			return
		}
		if resp.Closed {
			st.Close()
			return
		}
	}
}

func (c *RemoteClient) unsubscribe(id string) {
	req, err := http.NewRequest(http.MethodDelete, c.base+api.Prefix+"/subscriptions/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.hc.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// Close releases idle transport connections. Live subscriptions close
// themselves through their own Stream.Close.
func (c *RemoteClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

func (c *RemoteClient) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	body, err := readBody(path, resp)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func (c *RemoteClient) post(path string, in, out any) error {
	body, err := c.postBody(path, in)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// postBody sends in as a JSON POST and returns the 200 answer's body.
func (c *RemoteClient) postBody(path string, in any) ([]byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readBody(path, resp)
}

// maxResponse bounds how much of a response body the client will read.
const maxResponse = 64 << 20

// readBody reads and closes a response, turning a non-200 answer into the
// error it carries.
func readBody(path string, resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxResponse {
		return nil, fmt.Errorf("mycroft: %s: response exceeds %d MiB — narrow the query or page it", path, maxResponse>>20)
	}
	if resp.StatusCode != http.StatusOK {
		var we api.ErrorResponse
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			return nil, fmt.Errorf("%s", we.Error)
		}
		return nil, fmt.Errorf("mycroft: %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}
