package main

import (
	"fmt"
	"time"

	"mycroft"
	"mycroft/internal/sim"
)

// The ingest traffic is a job's own black-box telemetry, shaped as
// mycroft-sim -log-only feeds it: each rank's iteration completion from the
// Job.OnRankIteration tap is one timing sample, and every logEvery of
// virtual time each rank prints one info line. As there, each sample is a
// post of its own, made the moment its rank finishes, and the log lines of
// one tick are one post. The rate is therefore the simulated job's own
// iteration rate, not a number the benchmark picks.

// logEvery is mycroft-sim -log-only's log feed period.
const logEvery = 5 * time.Second

// post is one ingest request: log lines or timing samples for one job.
type post struct {
	Job     mycroft.JobID
	Lines   []mycroft.LogLine
	Samples []mycroft.IterationSample
	// Due is the wall time the post was complete and ready to send.
	Due time.Time
}

func (p post) logs() bool { return p.Lines != nil }

// items is how many lines or samples a post carries.
func (p post) items() int { return len(p.Lines) + len(p.Samples) }

func (p post) send(c mycroft.Client) (mycroft.IngestResult, error) {
	if p.logs() {
		return c.IngestLogs(p.Job, p.Lines)
	}
	return c.IngestTimings(p.Job, p.Samples)
}

// tapFeed makes the job produce its telemetry: emit receives each post the
// moment the simulated job completes it, on the engine's goroutine.
func tapFeed(h *mycroft.JobHandle, emit func(post)) {
	h.Job.OnRankIteration = func(r mycroft.Rank, iter int, at sim.Time) {
		s := []mycroft.IterationSample{{Rank: r, Iter: iter, At: time.Duration(at)}}
		emit(post{Job: h.ID, Samples: s, Due: time.Now()})
	}
	eng := h.Job.Eng
	var tick func()
	tick = func() {
		now := time.Duration(eng.Now())
		lines := make([]mycroft.LogLine, h.WorldSize())
		for r := range lines {
			lines[r] = mycroft.LogLine{
				Rank: mycroft.Rank(r), Level: "info", At: now,
				Text: fmt.Sprintf("iteration %d loss 2.31 lr 0.0003", h.Job.IterationsDone()),
			}
		}
		emit(post{Job: h.ID, Lines: lines, Due: time.Now()})
		eng.After(logEvery, tick)
	}
	eng.After(logEvery, tick)
}
