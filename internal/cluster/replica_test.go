package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mycroft/internal/api"
)

// mirrorRecords builds n distinguishable records: OpSeq is the arrival
// index, ranks cycle 0..3, comms alternate 1/2, every third is a completion
// and times climb in steps of 100 with each pair sharing a timestamp (so
// arrival order, not time, must break ties).
func mirrorRecords(n int) []api.TraceRecord {
	out := make([]api.TraceRecord, n)
	for i := range out {
		kind := "state"
		if i%3 == 0 {
			kind = "completion"
		}
		out[i] = api.TraceRecord{
			Kind: kind, TimeNs: int64(100 * (i/2 + 1)), IP: fmt.Sprintf("10.0.0.%d", i%4),
			CommID: uint64(1 + i%2), Rank: i % 4, Op: "AllReduce", OpSeq: uint64(i),
		}
	}
	return out
}

// mirrorJob applies recs to a fresh store in batches of batch records.
func mirrorJob(t testing.TB, traceCap, batch int, recs []api.TraceRecord) *ReplicaJob {
	t.Helper()
	rs := NewReplicaStore(0, traceCap)
	for lo := 0; lo < len(recs); lo += batch {
		rs.Apply(api.ReplicateRequest{From: "p1", Job: "j", Trace: recs[lo:min(lo+batch, len(recs))]})
	}
	return rs.Job("j")
}

// wantTrace is the reference replica page: every match in arrival order,
// Total counting them all, Records the first Limit (all for Limit <= 0).
func wantTrace(mirror []api.TraceRecord, req api.TraceRequest) api.TraceResponse {
	var all []api.TraceRecord
	for _, r := range mirror {
		if len(req.Ranks) > 0 && !slices.Contains(req.Ranks, r.Rank) ||
			req.Comm != 0 && r.CommID != req.Comm ||
			len(req.Kinds) > 0 && !slices.Contains(req.Kinds, r.Kind) ||
			r.TimeNs < req.FromNs || req.ToNs > 0 && r.TimeNs > req.ToNs {
			continue
		}
		all = append(all, r)
	}
	recs := all
	if req.Limit > 0 && len(recs) > req.Limit {
		recs = recs[:req.Limit]
	}
	return api.TraceResponse{Job: "j", Records: recs, Total: len(all)}
}

// TestReplicaQueryTracePage pins the replica trace-page contract: Total
// counts every match, Records is the first Limit matches in arrival order
// (all of them for Limit <= 0), the window includes both bounds, the rank,
// comm and kind filters apply, and Next stays nil.
func TestReplicaQueryTracePage(t *testing.T) {
	recs := mirrorRecords(40)
	rj := mirrorJob(t, 0, 7, recs)

	cases := []struct {
		name string
		req  api.TraceRequest
	}{
		{"all", api.TraceRequest{}},
		{"limit", api.TraceRequest{Limit: 5}},
		{"limit-over-total", api.TraceRequest{Ranks: []int{2}, Limit: 100}},
		{"limit-zero", api.TraceRequest{Ranks: []int{1}, Limit: 0}},
		{"limit-negative", api.TraceRequest{Ranks: []int{1}, Limit: -3}},
		{"ranks", api.TraceRequest{Ranks: []int{1, 3}, Limit: 4}},
		{"comm", api.TraceRequest{Comm: 2, Limit: 6}},
		{"kinds", api.TraceRequest{Kinds: []string{"completion"}}},
		{"window-from", api.TraceRequest{FromNs: 1500}},
		{"window-both", api.TraceRequest{FromNs: 500, ToNs: 900}},
		{"window-point", api.TraceRequest{FromNs: 700, ToNs: 700}},
		{"combined", api.TraceRequest{Ranks: []int{0, 2}, Comm: 1, Kinds: []string{"state"}, FromNs: 300, ToNs: 1800, Limit: 2}},
		{"no-match", api.TraceRequest{Ranks: []int{9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := rj.QueryTrace(tc.req)
			want := wantTrace(recs, tc.req)
			if got.Total != want.Total || got.Next != nil || got.Job != "j" {
				t.Fatalf("page header: Total %d Next %v Job %q, want Total %d", got.Total, got.Next, got.Job, want.Total)
			}
			if len(got.Records) != len(want.Records) || len(want.Records) > 0 && !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatalf("records:\n got %+v\nwant %+v", got.Records, want.Records)
			}
		})
	}

	// Spot checks that do not lean on the reference filter.
	if p := rj.QueryTrace(api.TraceRequest{Limit: 3}); p.Total != 40 || len(p.Records) != 3 ||
		p.Records[0].OpSeq != 0 || p.Records[1].OpSeq != 1 || p.Records[2].OpSeq != 2 {
		t.Fatalf("first page: %+v", p)
	}
	// FromNs 700 and ToNs 800 are both inclusive: records 12..15.
	if p := rj.QueryTrace(api.TraceRequest{FromNs: 700, ToNs: 800}); p.Total != 4 ||
		p.Records[0].OpSeq != 12 || p.Records[3].OpSeq != 15 {
		t.Fatalf("inclusive window: %+v", p)
	}
}

// TestReplicaTraceMirrorOverflow pins that the mirror keeps the newest
// traceCap records once it overflows, and pages over what it kept.
func TestReplicaTraceMirrorOverflow(t *testing.T) {
	recs := mirrorRecords(25)
	rj := mirrorJob(t, 8, 3, recs)
	kept := recs[len(recs)-8:]
	got := rj.QueryTrace(api.TraceRequest{})
	if got.Total != 8 || !reflect.DeepEqual(got.Records, kept) {
		t.Fatalf("after overflow: Total %d records %+v, want the newest 8", got.Total, got.Records)
	}
	got = rj.QueryTrace(api.TraceRequest{Ranks: []int{1}, Limit: 1})
	want := wantTrace(kept, api.TraceRequest{Ranks: []int{1}, Limit: 1})
	if got.Total != want.Total || !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("filtered after overflow: %+v, want %+v", got, want)
	}
}

var replicaPageSink api.TraceResponse

// BenchmarkReplicaQueryTrace prices one replica trace page: a full
// DefaultTraceMirror mirror, a rank filter matching a quarter of it, and a
// 100-record page.
func BenchmarkReplicaQueryTrace(b *testing.B) {
	rj := mirrorJob(b, 0, 4096, mirrorRecords(DefaultTraceMirror))
	req := api.TraceRequest{Ranks: []int{1}, Limit: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replicaPageSink = rj.QueryTrace(req)
	}
}
