package mycroft

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// faultedService builds the canonical one-job test run: seed 1, nic-down on
// rank 5 at 15s.
func faultedService(t *testing.T) *Service {
	t.Helper()
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob("trace", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})
	return svc
}

// TestRemoteSubscribeEquivalence is the wire half of the acceptance
// criterion: a Subscribe stream over HTTP must deliver the same events as
// an in-process subscription on an identically seeded run, with zero drops
// when no buffer cap is set.
func TestRemoteSubscribeEquivalence(t *testing.T) {
	filter := EventFilter{Kinds: []EventKind{EventTrigger, EventReport}}
	const horizon = 40 * time.Second

	// In-process reference run.
	local := faultedService(t)
	stLocal := local.Subscribe(filter)
	local.Run(horizon)
	want := stLocal.Drain()
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}

	// Identical run served over HTTP; the remote subscription attaches
	// before any virtual time passes, then the daemon drives.
	remote := faultedService(t)
	srv := NewServer(remote)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	stRemote := rc.Subscribe(filter)
	if err := stRemote.Err(); err != nil {
		t.Fatal(err)
	}
	for driven := time.Duration(0); driven < horizon; driven += time.Second {
		srv.Advance(time.Second)
	}

	var got []Event
	for len(got) < len(want) {
		e, ok := stRemote.NextWait(5 * time.Second)
		if !ok {
			break
		}
		got = append(got, e)
	}
	if err := stRemote.Err(); err != nil {
		t.Fatalf("remote stream failed: %v", err)
	}
	if stRemote.Dropped() != 0 {
		t.Fatalf("uncapped remote stream dropped %d events", stRemote.Dropped())
	}
	if len(got) != len(want) {
		t.Fatalf("remote delivered %d events, in-process %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() || got[i].Kind != want[i].Kind || got[i].At != want[i].At || got[i].Job != want[i].Job {
			t.Errorf("event %d differs:\n remote: %v\n local:  %v", i, got[i], want[i])
		}
	}

	// No stragglers: the remote stream is dry once counts match.
	if e, ok := stRemote.NextWait(200 * time.Millisecond); ok {
		t.Errorf("remote stream delivered an extra event: %v", e)
	}
	if err := stRemote.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stRemote.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteQueriesMatchInProcess spot-checks that every Client query
// answers identically through the wire, including the new pagination
// fields.
func TestRemoteQueriesMatchInProcess(t *testing.T) {
	local := faultedService(t)
	local.Run(40 * time.Second)

	remoteSvc := faultedService(t)
	srv := NewServer(remoteSvc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Advance(40 * time.Second)
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Triggers, paged one at a time through NextOffset.
	wantTr, err := local.QueryTriggers(TriggerQuery{})
	if err != nil {
		t.Fatal(err)
	}
	var paged []JobTrigger
	q := TriggerQuery{Limit: 1}
	for {
		res, err := rc.QueryTriggers(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != wantTr.Total {
			t.Fatalf("paged Total %d, want %d", res.Total, wantTr.Total)
		}
		paged = append(paged, res.Triggers...)
		if res.NextOffset < 0 {
			break
		}
		q.Offset = res.NextOffset
	}
	if len(paged) != wantTr.Total {
		t.Fatalf("NextOffset walk returned %d triggers, want %d", len(paged), wantTr.Total)
	}
	for i := range paged {
		if paged[i].String() != wantTr.Triggers[i].String() {
			t.Errorf("trigger %d differs over wire:\n %v\n %v", i, paged[i], wantTr.Triggers[i])
		}
	}

	// Reports.
	wantRep, _ := local.QueryReports(ReportQuery{})
	gotRep, err := rc.QueryReports(ReportQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRep.Reports) != len(wantRep.Reports) || gotRep.Total != wantRep.Total || gotRep.NextOffset != wantRep.NextOffset {
		t.Fatalf("reports over wire: %d/%d/%d, want %d/%d/%d",
			len(gotRep.Reports), gotRep.Total, gotRep.NextOffset,
			len(wantRep.Reports), wantRep.Total, wantRep.NextOffset)
	}
	for i := range wantRep.Reports {
		if gotRep.Reports[i].Report.String() != wantRep.Reports[i].Report.String() {
			t.Errorf("report %d differs over wire", i)
		}
	}

	// Trace pages, record for record: a first page cut short by Limit (so
	// it carries a cursor), then the page that cursor resumes.
	tq := TraceQuery{Ranks: []Rank{5}, Limit: 10}
	for page := 1; page <= 2; page++ {
		wantPage, err := local.QueryTrace(tq)
		if err != nil {
			t.Fatal(err)
		}
		if wantPage.Next == nil {
			t.Fatalf("trace page %d has no cursor; the check needs a longer run", page)
		}
		gotPage, err := rc.QueryTrace(tq)
		if err != nil {
			t.Fatal(err)
		}
		sameTracePage(t, fmt.Sprintf("live trace page %d", page), gotPage, wantPage)
		tq.Cursor = wantPage.Next
	}

	// Dependencies + blast radius + triage + job listing.
	wantDep, _ := local.QueryDependencies(DependencyQuery{RenderDOT: true})
	gotDep, err := rc.QueryDependencies(DependencyQuery{RenderDOT: true})
	if err != nil {
		t.Fatal(err)
	}
	if gotDep.DOT != wantDep.DOT || len(gotDep.Edges) != len(wantDep.Edges) {
		t.Fatalf("dependencies differ over wire: %d edges, want %d", len(gotDep.Edges), len(wantDep.Edges))
	}
	wantBR, _ := local.BlastRadius("", 5)
	gotBR, err := rc.BlastRadius("", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotBR) != len(wantBR) {
		t.Fatalf("blast radius differs: %v vs %v", gotBR, wantBR)
	}
	wantTri, _ := local.Triage("")
	gotTri, err := rc.Triage("")
	if err != nil {
		t.Fatal(err)
	}
	if gotTri != wantTri {
		t.Fatalf("triage differs: %+v vs %+v", gotTri, wantTri)
	}
	wantJobs, _ := local.ListJobs()
	gotJobs, err := rc.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if gotJobs.Now != wantJobs.Now || len(gotJobs.Jobs) != 1 ||
		gotJobs.Jobs[0].Records != wantJobs.Jobs[0].Records ||
		gotJobs.Jobs[0].WorldSize != wantJobs.Jobs[0].WorldSize {
		t.Fatalf("job listing differs: %+v vs %+v", gotJobs, wantJobs)
	}
}

// sameTracePage fails unless a page read over the wire matches the
// in-process page exactly: header, cursor and every field of every record.
func sameTracePage(t *testing.T, what string, got, want TraceResult) {
	t.Helper()
	if got.Job != want.Job || got.Total != want.Total || len(got.Records) != len(want.Records) {
		t.Fatalf("%s: job %q, %d records, Total %d; want job %q, %d records, Total %d", what,
			got.Job, len(got.Records), got.Total, want.Job, len(want.Records), want.Total)
	}
	if (got.Next == nil) != (want.Next == nil) || got.Next != nil && *got.Next != *want.Next {
		t.Fatalf("%s: cursor %+v, want %+v", what, got.Next, want.Next)
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("%s: record %d differs over wire:\n got  %+v\n want %+v", what, i, got.Records[i], want.Records[i])
		}
	}
}

// TestReplicaTracePageOverWire: a follower answers trace pages for a job it
// replicates, and what the client decodes matches the page the follower
// computes in-process, record for record.
func TestReplicaTracePageOverWire(t *testing.T) {
	peers := startCluster(t, []string{"p1", "p2"}, []JobID{"job-0", "job-1"}, 2)
	for i := 0; i < 15; i++ {
		for _, p := range peers {
			p.srv.Advance(time.Second)
			if errs := p.srv.ReplicateNow(); len(errs) > 0 {
				t.Fatalf("replication: %v", errs[0])
			}
		}
	}
	follower := peers["p1"]
	if _, primary := follower.handles["job-0"]; primary {
		follower = peers["p2"]
	}
	rj := follower.srv.loadCluster().store.Job("job-0")
	if rj == nil {
		t.Fatal("follower holds no replica of job-0")
	}
	rc, err := Dial(follower.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, q := range []TraceQuery{
		{Job: "job-0", Limit: 100},
		{Job: "job-0", Ranks: []Rank{3}, Kinds: []RecordKind{RecordCompletion}, Limit: 7},
	} {
		want, err := traceResultFromWire(rj.QueryTrace(traceQueryToWire(q)))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Records) != q.Limit || want.Total <= q.Limit {
			t.Fatalf("replica page for %+v holds %d of %d records; the check needs a fuller mirror", q, len(want.Records), want.Total)
		}
		got, err := rc.QueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		sameTracePage(t, fmt.Sprintf("replica trace page %+v", q), got, want)
	}
}

// TestServiceQueryNextOffset pins the NextOffset pagination contract on the
// in-process side: walking pages by NextOffset visits every match exactly
// once and the final page says -1.
func TestServiceQueryNextOffset(t *testing.T) {
	svc := faultedService(t)
	svc.Run(40 * time.Second)

	full, err := svc.QueryTriggers(TriggerQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < 1 {
		t.Fatal("run produced no triggers")
	}
	if full.NextOffset != -1 {
		t.Fatalf("unpaginated query NextOffset = %d, want -1", full.NextOffset)
	}

	var walked int
	q := TriggerQuery{Limit: 1}
	for {
		res, err := svc.QueryTriggers(q)
		if err != nil {
			t.Fatal(err)
		}
		walked += len(res.Triggers)
		if res.NextOffset == -1 {
			if len(res.Triggers) == 0 && walked != full.Total {
				t.Fatal("empty non-final page")
			}
			break
		}
		if res.NextOffset != q.Offset+len(res.Triggers) {
			t.Fatalf("NextOffset %d after offset %d + %d items", res.NextOffset, q.Offset, len(res.Triggers))
		}
		q.Offset = res.NextOffset
	}
	if walked != full.Total {
		t.Fatalf("NextOffset walk visited %d of %d matches", walked, full.Total)
	}

	// A page that lands exactly on the last match reports -1, not a
	// phantom next page.
	res, err := svc.QueryTriggers(TriggerQuery{Offset: full.Total - 1, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triggers) != 1 || res.NextOffset != -1 {
		t.Fatalf("exact final page: %d items, NextOffset %d", len(res.Triggers), res.NextOffset)
	}
}

// TestRecordDownloadRoundTrip: a daemon recording with RecordTo serves a
// live artifact snapshot at GET /v1/jobs/{id}/record that replays cleanly,
// and the final on-disk artifact reproduces the run byte-for-byte.
func TestRecordDownloadRoundTrip(t *testing.T) {
	svc := NewService(ServiceOptions{Seed: 1})
	h, err := svc.AddJob("trace", JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	dir := t.TempDir()
	if err := srv.RecordTo(dir); err != nil {
		t.Fatal(err)
	}
	if len(srv.RecordPaths()) != 1 {
		t.Fatalf("RecordPaths = %v", srv.RecordPaths())
	}
	svc.Start()
	h.Inject(Fault{Kind: NICDown, Rank: 5, At: 15 * time.Second})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Mid-run snapshot: valid but incomplete, consistent to "now".
	srv.Advance(30 * time.Second)
	var snap bytes.Buffer
	if err := rc.FetchRecord("trace", &snap); err != nil {
		t.Fatal(err)
	}
	mid, err := Replay(&snap, ReplayOptions{})
	if err != nil {
		t.Fatalf("mid-run snapshot does not replay: %v", err)
	}
	if mid.Complete {
		t.Fatal("mid-run snapshot claims to be complete")
	}
	if mid.RecordsIngested == 0 || len(mid.Replayed.Triggers) == 0 {
		t.Fatalf("snapshot too empty: %d records, %d triggers", mid.RecordsIngested, len(mid.Replayed.Triggers))
	}

	// Unknown job and un-recorded daemons are clean errors, not torn bodies.
	if err := rc.FetchRecord("ghost", io.Discard); err == nil {
		t.Fatal("FetchRecord of unknown job did not error")
	}

	// Finish the run, close out, and replay the finalized artifact.
	srv.Advance(10 * time.Second)
	if err := srv.CloseRecorders(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.mycrec"))
	if err != nil {
		t.Fatal(err)
	}
	final, err := Replay(bytes.NewReader(data), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Complete {
		t.Fatal("finalized artifact incomplete")
	}
	if d := DiffOutcomes(final.Recorded, final.Replayed); !d.Zero() {
		t.Fatalf("daemon-recorded artifact drifted on replay:\n%s", d.Render())
	}
	// The recorder slot frees after CloseRecorders; downloads now error.
	if err := rc.FetchRecord("trace", io.Discard); err == nil {
		t.Fatal("FetchRecord after CloseRecorders did not error")
	}
}
