package main

import (
	"fmt"
	"os"
	"time"

	"mycroft"
)

// clientStats is what the query client and the ingest sender measured.
type clientStats struct {
	Queries latencies
	ByKind  map[string]*latencies
	// Ingest is each post's latency from when it was due to be sent.
	Ingest latencies
	// LogTime and TimingTime sum the ingest calls by channel.
	LogTime, TimingTime time.Duration
	Lines, Samples      uint64
	// Late sums how far behind schedule the sender started each post.
	Late     time.Duration
	Posts    int
	Accepted int
	Sent     int
}

func newClientStats() *clientStats {
	s := &clientStats{ByKind: map[string]*latencies{}}
	for _, k := range queryKinds {
		s.ByKind[k] = &latencies{}
	}
	return s
}

// sendPost sends one ingest post and accounts it, timed from due.
func (s *clientStats) sendPost(c mycroft.Client, p post, due time.Time, o *outcome, tr *tracer) {
	name := "client.ingest_timings"
	if p.logs() {
		name = "client.ingest_logs"
	}
	id := tr.begin(name, 0)
	sent := time.Now()
	res, err := p.send(c)
	done := time.Now()
	tr.end(id)
	o.op(err)
	s.Ingest.add(done.Sub(due))
	s.Late += max(0, sent.Sub(due))
	s.Posts++
	s.Accepted += res.Accepted
	s.Sent += p.items()
	if p.logs() {
		s.LogTime += done.Sub(sent)
		s.Lines += uint64(p.items())
	} else {
		s.TimingTime += done.Sub(sent)
		s.Samples += uint64(p.items())
	}
}

// fill writes the client's end-to-end metrics and its per-layer share.
// steady marks calls that form a steady stream, whose quantiles are the
// median over windows; inproc marks calls answered in-process.
func (s *clientStats) fill(o *outcome, steady, inproc bool) {
	for _, m := range []struct {
		name string
		l    *latencies
	}{{"query", &s.Queries}, {"ingest", &s.Ingest}} {
		k := 1
		if steady {
			k = m.l.windowsFor()
		}
		tail := m.l.tailQuantile(k)
		o.E2E[m.name+"_p50_ms"] = m.l.quantileMs(0.5, k)
		o.E2E[m.name+"_p99_ms"] = m.l.quantileMs(tail, k)
		if tail != 0.99 {
			fmt.Fprintf(os.Stderr, "perfbench: %s_p99_ms reports p%.0f: %d samples leave fewer than ten beyond p99\n", m.name, tail*100, m.l.n())
		}
	}
	o.check("ingest accepted equals lines and samples sent", s.Accepted == s.Sent)
	if inproc {
		for k, l := range s.ByKind {
			o.Layer["query.inproc_us."+k] = l.meanUs()
		}
	}
	o.Layer["logdiag.ingest_ns_per_line"] = perUnit(s.LogTime, s.Lines)
	o.Layer["perfdiag.ingest_ns_per_sample"] = perUnit(s.TimingTime, s.Samples)
	o.Layer["channels.accepted"] = float64(s.Accepted)
	if s.Posts > 0 {
		o.Layer["gen.late_ms"] = float64(s.Late) / float64(s.Posts) / 1e6
	}
}

// queryInProcess answers n queries of the cycle in order, in a closed loop
// with no think time, and accounts each.
func (s *clientStats) queryInProcess(c mycroft.Client, cycle []querySpec, n int, o *outcome, tr *tracer) {
	for i := 0; i < n; i++ {
		q := cycle[i%len(cycle)]
		id := tr.begin("client.query."+q.Kind, 0)
		start := time.Now()
		_, err := doQuery(c, q)
		d := time.Since(start)
		tr.end(id)
		o.op(err)
		s.Queries.add(d)
		s.ByKind[q.Kind].add(d)
	}
}
