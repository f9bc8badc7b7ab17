package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mycroft"
	"mycroft/internal/cluster"
	"mycroft/internal/obs"
)

// serve-mixed: two in-process mycroft-serve peers on loopback, replication
// factor 1, hosting a small multi-job fleet whose incidents were diagnosed
// in a set-up pre-run and then stopped, plus one live healthy job per peer
// that keeps the engine, the store and replication busy. The benchmark
// paces Server.Advance and Server.ReplicateNow on each peer and loads them
// through exactly two generator connections:
//   - a closed-loop query client on peer A: half its requests read A's own
//     jobs on the live path behind the server mutex, half read B's jobs on
//     the replica path;
//   - an open-loop sender posting B's live job's log lines and iteration
//     timings to B as the job produces them, writes beside the reads.

// serveStep and serveTick are mycroft-serve's default drive: advance one
// virtual second, then pause 20 ms. replicatePeriod is its default
// replication push period; the set-up pre-run, which runs servePreRun of
// virtual time so every incident is diagnosed, replicates every
// replicateEvery steps instead.
const (
	serveStep       = time.Second
	serveTick       = 20 * time.Millisecond
	servePreRun     = 50 * time.Second
	replicatePeriod = 250 * time.Millisecond
	replicateEvery  = 12
)

// senderQueue holds the posts the live job has produced and the sender has
// not yet sent; the drive loop never waits for the sender.
const senderQueue = 1 << 14

type peer struct {
	name, addr string
	svc        *mycroft.Service
	srv        *mycroft.Server
	hs         *http.Server
	served     chan struct{}
	counter    *byteCounter
	// jobs are the peer's incident jobs and, last, its live job.
	jobs []incident
	live mycroft.JobID
	recs []*mycroft.Recorder
	arts []*bytes.Buffer
}

type servePair struct {
	a, b   *peer
	client *mycroft.RemoteClient // on A
	sender *mycroft.RemoteClient // on B
	// queuePeak is the deepest engine queue seen in the pre-run.
	queuePeak int
	// stoppedAt is the virtual instant the diagnosed jobs stopped.
	stoppedAt time.Duration
}

// startPair brings both peers up, hosts every job on its ring primary, runs
// the pre-run that diagnoses the incidents, replicates, and dials the two
// generator connections.
func startPair(cfg config, incs []incident) (*servePair, error) {
	lns := map[string]net.Listener{}
	addrs := map[string]string{}
	for _, name := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns[name], addrs[name] = ln, ln.Addr().String()
	}
	ring := cluster.NewRing([]string{"a", "b"}, 0)
	sp := &servePair{}
	peers := map[string]*peer{}
	for _, name := range []string{"a", "b"} {
		p := &peer{name: name, addr: addrs[name], svc: mycroft.NewService(mycroft.ServiceOptions{Seed: cfg.Seed}), served: make(chan struct{})}
		for _, inc := range incs {
			if ring.Primary(string(inc.Job)) != name {
				continue
			}
			if _, err := addIncidentJob(p.svc, inc); err != nil {
				return nil, err
			}
			p.jobs = append(p.jobs, inc)
		}
		if len(p.jobs) == 0 {
			return nil, fmt.Errorf("ring placed no job on peer %s", name)
		}
		p.live = liveJob(ring, name)
		if _, err := p.svc.AddJob(p.live, mycroft.JobOptions{}); err != nil {
			return nil, err
		}
		p.jobs = append(p.jobs, incident{Job: p.live, Topo: smallTopo})
		if cfg.Traced && name == "a" {
			// Capture A's pipeline inputs for the layer re-drives.
			for _, j := range p.jobs {
				buf := &bytes.Buffer{}
				rec, err := p.svc.Record(j.Job, buf)
				if err != nil {
					return nil, err
				}
				p.recs, p.arts = append(p.recs, rec), append(p.arts, buf)
			}
		}
		p.srv = mycroft.NewServer(p.svc)
		err := p.srv.EnableCluster(mycroft.ClusterConfig{ID: "perfbench", Self: name, SelfAddr: addrs[name], Peers: addrs, Replicas: 1})
		if err != nil {
			return nil, err
		}
		p.svc.Start()
		var h http.Handler = p.srv.Handler()
		if cfg.Traced {
			p.counter = &byteCounter{next: h, bytes: map[string]int64{}, n: map[string]int64{}}
			h = p.counter
		}
		p.hs = &http.Server{Handler: h}
		go func(ln net.Listener) {
			defer close(p.served)
			if err := p.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
			}
		}(lns[name])
		peers[name] = p
	}
	sp.a, sp.b = peers["a"], peers["b"]

	for t, i := time.Duration(0), 0; t < servePreRun; t, i = t+serveStep, i+1 {
		sp.a.srv.Advance(serveStep)
		sp.b.srv.Advance(serveStep)
		// Handlers may schedule engine events once serving starts, so the
		// queue depth is sampled here, before any request arrives.
		sp.queuePeak = max(sp.queuePeak, sp.a.svc.Eng.Pending(), sp.b.svc.Eng.Pending())
		if i%replicateEvery == 0 {
			if err := sp.replicate(); err != nil {
				return sp, err
			}
		}
	}
	// The diagnosed jobs stop, as a cordoned job would; their incidents
	// stay queryable. Each peer's live job keeps the engine, the store and
	// replication busy in the timed phase.
	sp.stoppedAt = min(sp.a.svc.Now(), sp.b.svc.Now())
	for _, p := range []*peer{sp.a, sp.b} {
		for _, j := range p.jobs {
			if h, ok := p.svc.Job(j.Job); ok && j.Job != p.live {
				h.Stop()
			}
		}
	}
	if err := sp.replicate(); err != nil {
		return sp, err
	}
	var err error
	if sp.client, err = mycroft.Dial(sp.a.addr); err != nil {
		return sp, err
	}
	if sp.sender, err = mycroft.Dial(sp.b.addr); err != nil {
		return sp, err
	}
	return sp, nil
}

// liveJob names the peer's healthy job: the first "live-N" the ring
// places on it.
func liveJob(ring *cluster.Ring, peer string) mycroft.JobID {
	for i := 0; ; i++ {
		id := fmt.Sprintf("live-%d", i)
		if ring.Primary(id) == peer {
			return mycroft.JobID(id)
		}
	}
}

func (sp *servePair) replicate() error {
	for _, p := range []*peer{sp.a, sp.b} {
		if errs := p.srv.ReplicateNow(); len(errs) > 0 {
			return errs[0]
		}
	}
	return nil
}

// stop shuts both peers down and waits until their servers have returned.
func (sp *servePair) stop() {
	for _, c := range []*mycroft.RemoteClient{sp.client, sp.sender} {
		if c != nil {
			c.Close()
		}
	}
	for _, p := range []*peer{sp.a, sp.b} {
		if p != nil && p.hs != nil {
			p.hs.Close()
			<-p.served
		}
	}
}

// byteCounter counts response bytes per query kind.
type byteCounter struct {
	next  http.Handler
	mu    sync.Mutex
	bytes map[string]int64
	n     map[string]int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (c *byteCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	c.next.ServeHTTP(cw, r)
	if k := kindOfPath(r.URL.Path); k != "" {
		c.mu.Lock()
		c.bytes[k] += cw.n
		c.n[k]++
		c.mu.Unlock()
	}
}

// kindOfPath maps a request path to its query kind ("" for other routes).
func kindOfPath(path string) string {
	for k, ep := range endpointOf {
		if path == ep {
			return k
		}
		if strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(ep, path[strings.LastIndex(path, "/"):]) {
			return k
		}
	}
	return ""
}

func runServeMixed(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	o := newOutcome("query_p50_ms", tr)
	s := cfg.Size
	rng := rand.New(rand.NewSource(cfg.Seed))
	incs := campaign(rng, "svc-", []topoSpec{s.ServeTopo})

	var sp *servePair
	var setups []float64
	for i := 0; i < s.Setups; i++ {
		if sp != nil {
			sp.stop()
		}
		sp = nil
		runtime.GC()
		start := time.Now()
		var err error
		sp, err = startPair(cfg, incs)
		if err != nil {
			if sp != nil {
				sp.stop()
			}
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sp.stop()
	o.E2E["setup_s"] = median(setups)

	// Query targets: jobs whose pre-run produced a verdict, so every page
	// the client reads has content.
	local, remote := diagnosed(sp.a), diagnosed(sp.b)
	if len(local) == 0 || len(remote) == 0 {
		return nil, fmt.Errorf("pre-run left a peer without a diagnosed job (A %d, B %d)", len(local), len(remote))
	}
	var cycle []querySpec
	for i := 0; i < cycleRounds; i++ {
		cycle = append(cycle, queryCycle(rng, queryKinds, local, false)...)
	}
	// Four replica kinds against five live ones: as many rounds again
	// and a quarter make the two halves equal.
	for i := 0; i < cycleRounds*5/4; i++ {
		cycle = append(cycle, queryCycle(rng, replicaKinds, remote, true)...)
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	before := countPipeline(sp.a.svc, sp.b.svc)
	serverBefore := endpointHist(sp.a.svc.Metrics())
	ingestBefore := endpointHist(sp.b.svc.Metrics())
	shippedBefore := shipped(sp.a.svc, sp.b.svc)
	chBefore, err := channelIngested(sp.b.svc, sp.b.jobs)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	if cfg.Traced {
		runtime.ReadMemStats(&ms0)
	}
	d0 := sp.a.svc.Eng.Dispatched() + sp.b.svc.Eng.Dispatched()
	v0 := sp.a.svc.Now()

	stats := newClientStats()
	replicaLat := map[string]*latencies{}
	for _, k := range replicaKinds {
		replicaLat[k] = &latencies{}
	}
	var (
		advance, replTime latencies
		empty             []string
		emptyMu           sync.Mutex
		apiErrors         atomic.Int64
		driver, gen       sync.WaitGroup
		stopDriver        = make(chan struct{})
		queue             = make(chan post, senderQueue)
		overflow          atomic.Int64
		start             = time.Now()
		deadline          = start.Add(cfg.Seconds)
	)
	record := func(err error) {
		o.op(err)
		if err != nil {
			apiErrors.Add(1)
		}
	}
	// B's live job hands each post to the sender the moment it completes
	// it, inside B's Advance.
	live, _ := sp.b.svc.Job(sp.b.live)
	tapFeed(live, func(p post) {
		select {
		case queue <- p:
		default:
			overflow.Add(1)
		}
	})

	// The drive loop advances each peer one step, then pauses one tick, as
	// mycroft-serve's drive loop does: a slow step delays the next rather
	// than queueing a burst. Replication runs beside it on its own period,
	// as the daemon's cluster loop does.
	pace := func(period time.Duration, tick func()) {
		defer driver.Done()
		for {
			select {
			case <-stopDriver:
				return
			case <-time.After(period):
			}
			tick()
		}
	}
	driver.Add(2)
	go pace(serveTick, func() {
		for _, p := range []*peer{sp.a, sp.b} {
			advance.add(tr.timed("server.advance", 0, func() { p.srv.Advance(serveStep) }))
		}
	})
	go pace(replicatePeriod, func() {
		replTime.add(tr.timed("server.replicate", 0, func() {
			if err := sp.replicate(); err != nil {
				record(fmt.Errorf("replication: %w", err))
			}
		}))
	})

	// The closed-loop query client on A: one user who sends the next
	// request as soon as the previous answer arrives.
	gen.Add(1)
	go func() {
		defer gen.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			q := cycle[i%len(cycle)]
			t0 := time.Now()
			id := tr.begin("client.query."+q.Kind, 0)
			n, err := doQuery(sp.client, q)
			tr.end(id)
			d := time.Since(t0)
			record(err)
			stats.Queries.add(d)
			stats.ByKind[q.Kind].add(d)
			if q.Replica {
				replicaLat[q.Kind].add(d)
			}
			if err == nil && n == 0 {
				emptyMu.Lock()
				empty = append(empty, fmt.Sprintf("%s %s replica=%v", q.Kind, q.Job, q.Replica))
				emptyMu.Unlock()
			}
		}
	}()

	// The open-loop sender on B: each post is timed from when the live job
	// completed it, however late the sender gets to it.
	gen.Add(1)
	go func() {
		defer gen.Done()
		for p := range queue {
			if p.Due.Before(deadline) {
				stats.sendPost(sp.sender, p, p.Due, o, tr)
			}
		}
	}()

	time.Sleep(time.Until(deadline))
	close(stopDriver)
	driver.Wait()
	wall := time.Since(start)
	close(queue)
	gen.Wait()
	if n := overflow.Load(); n > 0 {
		record(fmt.Errorf("sender queue overflowed: %d posts dropped", n))
	}
	if cfg.Traced {
		runtime.ReadMemStats(&ms1)
	}

	after := countPipeline(sp.a.svc, sp.b.svc)
	o.E2E["sim_s_per_wall_s"] = (sp.a.svc.Now() - v0).Seconds() / wall.Seconds()
	o.E2E["analysis_records_per_s"] = float64(after.Ingested-before.Ingested) / wall.Seconds()
	stats.fill(o, true, false)
	o.check("every query page is non-empty", len(empty) == 0)
	if len(empty) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: empty page:", empty[0])
	}
	chAfter, err := channelIngested(sp.b.svc, sp.b.jobs)
	if err != nil {
		return nil, err
	}
	o.check("channel counters grew by the lines and samples sent", chAfter-chBefore == uint64(stats.Sent))

	// Score the incidents as a user sees them: through A, over the wire,
	// live for A's jobs and from the replica for B's.
	var sc score
	for _, inc := range incs {
		trs, err := sp.client.QueryTriggers(mycroft.TriggerQuery{Jobs: []mycroft.JobID{inc.Job}})
		o.op(err)
		reps, err2 := sp.client.QueryReports(mycroft.ReportQuery{Jobs: []mycroft.JobID{inc.Job}})
		o.op(err2)
		if err != nil || err2 != nil {
			continue
		}
		var ts []mycroft.Trigger
		for _, t := range trs.Triggers {
			ts = append(ts, t.Trigger)
		}
		var rs []mycroft.Report
		for _, r := range reps.Reports {
			rs = append(rs, r.Report)
		}
		world := 0
		for _, p := range []*peer{sp.a, sp.b} {
			if h, ok := p.svc.Job(inc.Job); ok {
				world = h.WorldSize()
			}
		}
		sc.add(inc, world, sp.stoppedAt, ts, rs)
	}
	o.E2E["detect_15s_frac"], o.E2E["rca_20s_frac"] = sc.fractions()
	o.check("every incident is scorable", sc.Unscorable == 0 && sc.Incidents == len(incs))

	if cfg.Traced {
		dispatched := sp.a.svc.Eng.Dispatched() + sp.b.svc.Eng.Dispatched() - d0
		virtual := (sp.a.svc.Now() - v0) * 2
		o.Layer["sim.events_per_vs"] = float64(dispatched) / virtual.Seconds()
		var advTotal time.Duration
		for _, d := range advance.d {
			advTotal += d
		}
		o.Layer["sim.ns_per_event"] = perUnit(advTotal, dispatched)
		o.Layer["sim.alloc_b_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(1, dispatched))
		o.Layer["sim.queue_peak"] = float64(sp.queuePeak)
		after.fill(o)
		o.Layer["clouddb.records"] = float64(after.Ingested - before.Ingested)
		if h, ok := sp.a.svc.Job(sp.a.jobs[0].Job); ok {
			o.Layer["clouddb.shards"] = float64(len(h.StoreStats().Shards))
		}
		o.Layer["core.triggers"] = float64(after.Triggers)
		o.Layer["core.reports"] = float64(after.Reports)
		o.Layer["core.false_triggers"] = float64(sc.FalseTriggers)
		fillServiceHistograms(o, sp.a.svc, sp.b.svc)
		fillEvents(o, sp.a.svc, sp.b.svc)
		for k, l := range stats.ByKind {
			o.Layer["api.round_trip_us."+k] = l.meanUs()
		}
		serverAfter := endpointHist(sp.a.svc.Metrics())
		for _, k := range queryKinds {
			o.Layer["api.server_us."+k] = serverAfter.meanUsSince(serverBefore, endpointOf[k])
			if n := sp.a.counter.n[k]; n > 0 {
				o.Layer["api.resp_bytes."+k] = float64(sp.a.counter.bytes[k]) / float64(n)
			}
		}
		ingestAfter := endpointHist(sp.b.svc.Metrics())
		logUs, logN := ingestAfter.sumUsSince(ingestBefore, "/v1/jobs/{id}/logs")
		timUs, timN := ingestAfter.sumUsSince(ingestBefore, "/v1/jobs/{id}/timings")
		if logN > 0 && stats.Lines > 0 {
			o.Layer["logdiag.ingest_ns_per_line"] = logUs * 1e3 / float64(stats.Lines)
		}
		if timN > 0 && stats.Samples > 0 {
			o.Layer["perfdiag.ingest_ns_per_sample"] = timUs * 1e3 / float64(stats.Samples)
		}
		o.Layer["api.errors"] = float64(apiErrors.Load())
		o.Layer["serve.advance_ms"] = advance.meanUs() / 1e3
		o.Layer["cluster.replicate_ms"] = replTime.meanUs() / 1e3
		o.Layer["cluster.events_shipped"] = float64(shipped(sp.a.svc, sp.b.svc) - shippedBefore)
		for k, l := range replicaLat {
			o.Layer["cluster.replica_query_us."+k] = l.meanUs()
		}
		// The in-process twin: A's live-path requests answered by its
		// Service directly, with the drive loop stopped.
		var live []querySpec
		for _, q := range cycle {
			if !q.Replica {
				live = append(live, q)
			}
		}
		twin := newClientStats()
		twin.queryInProcess(sp.a.svc, live, len(live)*10, o, tr)
		for k, l := range twin.ByKind {
			o.Layer["query.inproc_us."+k] = l.meanUs()
		}
		var arts [][]byte
		for i, rec := range sp.a.recs {
			o.check("recorder captured cleanly", rec.Close() == nil)
			arts = append(arts, sp.a.arts[i].Bytes())
		}
		if err := redrive(arts, o, tr); err != nil {
			return nil, fmt.Errorf("serve re-drive: %w", err)
		}
	}
	if err := fillChannelAnomalies(o, sp.b.svc, incidentJobs(sp.b.jobs)); err != nil {
		return nil, err
	}
	o.E2E["heap_live_mb"] = liveHeapMB()
	runtime.KeepAlive(sp)
	return o, nil
}

// diagnosed lists the peer's jobs whose pre-run produced a report.
func diagnosed(p *peer) []incident {
	var out []incident
	for _, inc := range p.jobs {
		if h, ok := p.svc.Job(inc.Job); ok && len(h.Reports()) > 0 {
			out = append(out, inc)
		}
	}
	return out
}

// channelIngested sums the log and perf channels' ingest counters.
func channelIngested(svc *mycroft.Service, jobs []incident) (uint64, error) {
	var n uint64
	for _, inc := range jobs {
		st, err := svc.ChannelStats(inc.Job)
		if err != nil {
			return 0, err
		}
		for _, ch := range st.Channels {
			if ch.Channel != mycroft.ModalityTracepoint {
				n += ch.Ingested
			}
		}
	}
	return n, nil
}

func shipped(svcs ...*mycroft.Service) uint64 {
	var n uint64
	for _, svc := range svcs {
		n += svc.Metrics().Counter("mycroft_cluster_replicated_events_total", "").Value()
	}
	return n
}

// histSnap is a snapshot of the per-endpoint HTTP latency histogram.
type histSnap map[string]struct {
	sum float64
	n   uint64
}

func endpointHist(reg *obs.Registry) histSnap {
	out := histSnap{}
	eps := []string{"/v1/jobs/{id}/logs", "/v1/jobs/{id}/timings"}
	for _, ep := range endpointOf {
		eps = append(eps, ep)
	}
	for _, ep := range eps {
		h := reg.Histogram("mycroft_http_request_seconds", "", obs.LatencyBuckets, obs.L("endpoint", ep))
		out[ep] = struct {
			sum float64
			n   uint64
		}{h.Sum(), h.Count()}
	}
	return out
}

func (h histSnap) sumUsSince(before histSnap, ep string) (float64, uint64) {
	return (h[ep].sum - before[ep].sum) * 1e6, h[ep].n - before[ep].n
}

func (h histSnap) meanUsSince(before histSnap, ep string) float64 {
	sum, n := h.sumUsSince(before, ep)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
