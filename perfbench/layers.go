package main

import (
	"bytes"
	"fmt"
	"io"
	"time"
	"unsafe"

	"mycroft"
	"mycroft/internal/clouddb"
	"mycroft/internal/depgraph"
	"mycroft/internal/obs"
	"mycroft/internal/replay"
	"mycroft/internal/sim"
	"mycroft/internal/trace"
)

// Per-layer measurement. Layers the engine calls internally are timed by
// re-driving their public functions with inputs captured from the same
// workload: an incident artifact recorded through Service.Record holds the
// exact batch stream and evaluation instants the live pipeline saw.

// redrive times every pipeline layer on the given artifacts and writes the
// per-layer metrics. Decode is timed alone, then with store ingest, then as
// a full Replay; each layer's self time follows by subtraction, with the
// dependency graph's share timed on its own.
func redrive(arts [][]byte, o *outcome, tr *tracer) error {
	var (
		recs                uint64
		bytesTotal          int
		batches             [][]trace.Record
		tDecode, tDecIngest time.Duration
		tObserve, tReplay   time.Duration
		evals               uint64
	)
	root := tr.begin("redrive", 0)
	defer tr.end(root)
	for _, a := range arts {
		bytesTotal += len(a)
		var err error
		tDecode += tr.timed("redrive.decode", root, func() {
			err = decodeArtifact(a, func(b []trace.Record) {
				recs += uint64(len(b))
				batches = append(batches, b)
			})
		})
		if err != nil {
			return err
		}
		db := clouddb.New(sim.NewEngine(1), 0)
		tDecIngest += tr.timed("redrive.decode_ingest", root, func() {
			err = decodeArtifact(a, db.Ingest)
		})
		if err != nil {
			return err
		}
		var res *mycroft.ReplayResult
		tReplay += tr.timed("redrive.replay", root, func() {
			res, err = mycroft.Replay(bytes.NewReader(a), mycroft.ReplayOptions{})
		})
		if err != nil {
			return err
		}
		evals += res.Evals
	}
	g := depgraph.New()
	tObserve = tr.timed("redrive.depgraph_observe", root, func() {
		for _, b := range batches {
			g.ObserveBatch(b)
		}
	})
	tIngest := max(0, tDecIngest-tDecode)
	o.Layer["replay.decode_ns_per_record"] = perUnit(tDecode, recs)
	o.Layer["replay.artifact_mb"] = float64(bytesTotal) / 1e6
	o.Layer["clouddb.ingest_ns_per_record"] = perUnit(tIngest, recs)
	o.Layer["depgraph.observe_ns_per_record"] = perUnit(tObserve, recs)
	if evals > 0 {
		o.Layer["core.evaluate_us"] = float64(max(0, tReplay-tDecIngest-tObserve)) / float64(evals) / 1e3
	}
	redriveRing(batches, o, tr, root)
	return nil
}

// decodeArtifact streams an artifact's batches to fn.
func decodeArtifact(a []byte, fn func([]trace.Record)) error {
	dec, err := replay.NewDecoder(bytes.NewReader(a))
	if err != nil {
		return err
	}
	for {
		e, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if e.Kind == replay.EntryBatch {
			fn(e.Batch)
		}
	}
}

// redriveRing pushes the captured record stream through a fresh host ring
// (the tracepoint write, M1) and its reader (the collector drain, M3) in the
// batch sizes the collector saw, and through the fixed-size record codec
// (M2).
func redriveRing(batches [][]trace.Record, o *outcome, tr *tracer, parent int) {
	ring := trace.NewRing(1 << 16)
	rd := ring.NewReader()
	var n uint64
	var tEmit, tDrain time.Duration
	for _, b := range batches {
		tEmit += tr.timed("redrive.ring_emit", parent, func() {
			for i := range b {
				ring.Emit(b[i])
			}
		})
		tDrain += tr.timed("redrive.ring_drain", parent, func() { rd.Drain() })
		n += uint64(len(b))
	}
	o.Layer["trace.emit_ns"] = perUnit(tEmit, n)
	o.Layer["collector.drain_ns_per_record"] = perUnit(tDrain, n)

	buf := make([]byte, 0, int(n)*trace.WireSize)
	for _, b := range batches {
		for i := range b {
			var w [trace.WireSize]byte
			if err := b[i].MarshalBinaryTo(w[:]); err == nil {
				buf = append(buf, w[:]...)
			}
		}
	}
	var r trace.Record
	var decoded uint64
	tUnmarshal := tr.timed("redrive.unmarshal", parent, func() {
		for off := 0; off+trace.WireSize <= len(buf); off += trace.WireSize {
			if r.UnmarshalBinary(buf[off:off+trace.WireSize]) == nil {
				decoded++
			}
		}
	})
	o.Layer["trace.unmarshal_ns"] = perUnit(tUnmarshal, decoded)
}

// slotBytes is one ring slot's in-memory size.
const slotBytes = unsafe.Sizeof(trace.Record{})

// pipelineCounters sums the trace-pipeline counters of every hosted job.
type pipelineCounters struct {
	RingBytes                         uint64
	Written, Lost, Batches, Collected uint64
	Ingested                          uint64
	Iterations                        int
	Triggers, Reports                 int
}

func countPipeline(svcs ...*mycroft.Service) pipelineCounters {
	var c pipelineCounters
	for _, svc := range svcs {
		for _, id := range svc.Jobs() {
			h, _ := svc.Job(id)
			for _, ring := range h.Job.Rings {
				c.RingBytes += uint64(ring.Capacity()) * uint64(slotBytes)
				c.Written += ring.Written()
			}
			for _, a := range h.Job.Agents {
				batches, records, _, lost := a.Stats()
				c.Batches += batches
				c.Collected += records
				c.Lost += lost
			}
			c.Ingested += h.RecordsIngested()
			c.Iterations += h.Job.IterationsDone()
			c.Triggers += len(h.Triggers())
			c.Reports += len(h.Reports())
		}
	}
	return c
}

// fillPipeline writes the trace, collector and clouddb counters.
func (c pipelineCounters) fill(o *outcome) {
	o.Layer["trace.ring_mb"] = float64(c.RingBytes) / 1e6
	o.Layer["trace.records_written"] = float64(c.Written)
	o.Layer["trace.records_lost"] = float64(c.Lost)
	o.Layer["collector.batches"] = float64(c.Batches)
	if c.Batches > 0 {
		o.Layer["collector.records_per_batch"] = float64(c.Collected) / float64(c.Batches)
	}
	o.Layer["train.iterations"] = float64(c.Iterations)
}

// histSumUs reads one program histogram's sum, in microseconds, and count,
// both totalled over the label sets given.
func histSumUs(reg *obs.Registry, name string, labels ...[]obs.Label) (sum float64, count uint64) {
	for _, ls := range labels {
		h := reg.Histogram(name, "", obs.LatencyBuckets, ls...)
		sum += h.Sum()
		count += h.Count()
	}
	return sum * 1e6, count
}

// jobLabels lists the {job="…"} label set of every hosted job.
func jobLabels(svc *mycroft.Service) [][]obs.Label {
	var out [][]obs.Label
	for _, id := range svc.Jobs() {
		out = append(out, []obs.Label{obs.L("job", string(id))})
	}
	return out
}

// fillServiceHistograms writes the store-query and RCA latencies the
// program's own registries recorded.
func fillServiceHistograms(o *outcome, svcs ...*mycroft.Service) {
	var qSum, rSum float64
	var qN, rN uint64
	for _, svc := range svcs {
		s, n := histSumUs(svc.Metrics(), "mycroft_query_latency_seconds", jobLabels(svc)...)
		qSum, qN = qSum+s, qN+n
		s, n = histSumUs(svc.Metrics(), "mycroft_rca_latency_seconds", jobLabels(svc)...)
		rSum, rN = rSum+s, rN+n
	}
	if qN > 0 {
		o.Layer["clouddb.query_us"] = qSum / float64(qN)
	}
	if rN > 0 {
		o.Layer["core.rca_us"] = rSum / float64(rN)
	}
}

// fillChannelAnomalies sums the log and perf channels' anomaly counters of
// the given jobs.
func fillChannelAnomalies(o *outcome, c mycroft.Client, jobs []mycroft.JobID) error {
	var n uint64
	for _, id := range jobs {
		st, err := c.ChannelStats(id)
		if err != nil {
			return fmt.Errorf("channel stats %s: %w", id, err)
		}
		for _, ch := range st.Channels {
			if ch.Channel != mycroft.ModalityTracepoint {
				n += ch.Anomalies
			}
		}
	}
	o.Layer["channels.anomalies"] = float64(n)
	return nil
}

// fillEvents reads the subscription fan-out counters.
func fillEvents(o *outcome, svcs ...*mycroft.Service) {
	for _, svc := range svcs {
		reg := svc.Metrics()
		o.Layer["events.delivered"] += float64(reg.Counter("mycroft_subscription_events_total", "").Value())
		o.Layer["events.dropped"] += float64(reg.Counter("mycroft_subscription_events_dropped_total", "").Value())
	}
}
