package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mycroft/internal/sim"
	"mycroft/internal/topo"
	"mycroft/internal/trace"
)

// encodePage writes resp exactly as the server does (json.Encoder, so a
// trailing newline and HTML-escaped strings).
func encodePage(t testing.TB, resp TraceResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenRecordPage wraps the golden record fixture in a one-record page.
func goldenRecordPage(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "record.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := json.Compact(&rec, raw); err != nil {
		t.Fatal(err)
	}
	return []byte(`{"job":"llm-70b","records":[` + rec.String() + `],"total":1}` + "\n")
}

// realPage is a full 100-record page with a resume cursor, spread over four
// ranks, both record kinds and every op, with negative and extreme values.
func realPage(t testing.TB) []byte {
	t.Helper()
	resp := TraceResponse{Job: "llm-70b", Total: 4096, Next: &TraceCursor{Rank: 3, TimeNs: 18_000_000_000, Emitted: 100}}
	for i := 0; i < 100; i++ {
		r := fixtureRecord()
		r.Kind = trace.KindCompletion + trace.Kind(i%2)
		r.Time += sim.Time(1_000_000 * i)
		r.Rank = topo.Rank(i % 4)
		r.IP = topo.IP(fmt.Sprintf("10.0.%d.%d", i%4, 1+i%4))
		r.Op = trace.OpKind(i % 8)
		r.OpSeq = uint64(i) << 40
		r.CommID = ^uint64(0) - uint64(i)
		r.GPUID, r.Channel, r.QPID = int32(i%8), -int32(i), 1<<31-1
		r.MsgSize = -1 << 63
		r.RDMADone = 1<<32 - 1
		resp.Records = append(resp.Records, FromRecord(r))
	}
	return encodePage(t, resp)
}

// traceDecodeSeeds are the differential corpus: canonical pages the fast
// path must take, and near-misses that must fall back to encoding/json.
func traceDecodeSeeds(t testing.TB) [][]byte {
	golden := string(goldenRecordPage(t))
	page := string(realPage(t))
	rec := golden[strings.Index(golden, `{"kind"`):strings.Index(golden, `],"total"`)]
	sub := func(s, old, new string) []byte {
		if !strings.Contains(s, old) {
			t.Fatalf("seed base lacks %q", old)
		}
		return []byte(strings.Replace(s, old, new, 1))
	}
	html := encodePage(t, TraceResponse{Job: "<j&b>", Records: []TraceRecord{{Kind: "state", IP: "<10.0.0.1>", Op: "AllReduce"}}})
	return [][]byte{
		[]byte(golden),
		[]byte(page),
		[]byte(strings.TrimSuffix(page, "\n")),
		encodePage(t, TraceResponse{Job: "j", Records: []TraceRecord{}, Total: -1}),
		encodePage(t, TraceResponse{Job: "j"}),
		[]byte(`null`),
		nil,
		// Escaped, HTML-escaped and non-ASCII strings.
		sub(golden, `"ip":"10.0.0.1"`, `"ip":"10.0.0.\u0031"`),
		sub(golden, `"ip":"10.0.0.1"`, `"ip":"fe80::1%eth0-é"`),
		sub(golden, `"ip":"10.0.0.1"`, "\"ip\":\"10.0.0.\xff\""),
		sub(golden, `"ip":"10.0.0.1"`, "\"ip\":\"10.0.0.\x01\""),
		html,
		// Non-canonical numbers.
		sub(golden, `"end_ns":0`, `"end_ns":-0`),
		sub(golden, `"rank":5`, `"rank":05`),
		sub(golden, `"rank":5`, `"rank":5.0`),
		sub(golden, `"rank":5`, `"rank":5e0`),
		sub(golden, `"gpu_id":1`, `"gpu_id":2147483648`),
		sub(golden, `"gpu_id":1`, `"gpu_id":-2147483649`),
		sub(golden, `"total_chunks":32`, `"total_chunks":4294967296`),
		sub(golden, `"comm_id":7`, `"comm_id":18446744073709551616`),
		sub(golden, `"comm_id":7`, `"comm_id":-7`),
		sub(golden, `"stuck_ns":1216000000`, `"stuck_ns":9223372036854775808`),
		sub(golden, `"stuck_ns":1216000000`, `"stuck_ns":-9223372036854775808`),
		// null in every slot.
		sub(golden, `"records":[`+rec+`]`, `"records":null`),
		sub(page, `"next":{"rank":3,"time_ns":18000000000,"emitted":100}`, `"next":null`),
		sub(golden, `"kind":"state"`, `"kind":null`),
		sub(golden, `"rank":5`, `"rank":null`),
		// Repeated, miscased and unknown keys.
		sub(page, `}}`, `},"next":{"rank":9,"time_ns":1,"emitted":2}}`),
		sub(golden, `],"total"`, `],"records":[],"total"`),
		sub(golden, `"job"`, `"Job"`),
		sub(golden, `"records"`, `"RECORDS"`),
		sub(golden, `"kind"`, `"Kind"`),
		sub(golden, `"total":1`, `"total":1,"extra":true`),
		// Whitespace and trailing data.
		sub(golden, `{"job"`, ` {"job"`),
		sub(golden, `,"total"`, ` ,"total"`),
		[]byte(golden + "\n\t "),
		[]byte(golden + "{}"),
		[]byte(golden + "x"),
		[]byte(golden[:len(golden)/2]),
	}
}

// checkDecodeTrace asserts DecodeTraceResponse agrees with json.Unmarshal
// on a fresh value: both fail with the same error or both return equal
// values.
func checkDecodeTrace(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := DecodeTraceResponse(data)
	var want TraceResponse
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("error mismatch on %q:\n got %v\nwant %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("value mismatch on %q:\n got %+v\nwant %+v", data, got, want)
	}
}

func TestDecodeTraceResponseMatchesEncodingJSON(t *testing.T) {
	for i, seed := range traceDecodeSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkDecodeTrace(t, seed) })
	}
}

// TestDecodeTraceResponseFastPath pins that what the server writes takes
// the one-pass path, so the reflective decoder is only ever a fallback.
func TestDecodeTraceResponseFastPath(t *testing.T) {
	for name, body := range map[string][]byte{
		"golden":  goldenRecordPage(t),
		"page":    realPage(t),
		"empty":   encodePage(t, TraceResponse{Job: "j", Records: []TraceRecord{}}),
		"no-tail": bytes.TrimSuffix(realPage(t), []byte("\n")),
	} {
		d := traceDecoder{b: body}
		if _, ok := d.response(); !ok {
			t.Errorf("%s: canonical page fell back at byte %d: %q", name, d.i, body[d.i:min(len(body), d.i+40)])
		}
	}
	for name, body := range map[string][]byte{
		"null-records": encodePage(t, TraceResponse{Job: "j"}),
		"html-escaped": encodePage(t, TraceResponse{Job: "a<b", Records: []TraceRecord{}}),
	} {
		d := traceDecoder{b: body}
		if _, ok := d.response(); ok {
			t.Errorf("%s: non-canonical page took the one-pass path", name)
		}
	}
}

// FuzzDecodeTraceResponse is the differential check of the one-pass trace
// page decoder against encoding/json.
func FuzzDecodeTraceResponse(f *testing.F) {
	for _, seed := range traceDecodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkDecodeTrace)
}

var tracePageSink TraceResponse

// BenchmarkDecodeTraceResponse prices decoding one 100-record page with the
// one-pass decoder against reflective encoding/json.
func BenchmarkDecodeTraceResponse(b *testing.B) {
	body := realPage(b)
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := DecodeTraceResponse(body)
			if err != nil {
				b.Fatal(err)
			}
			tracePageSink = resp
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp TraceResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				b.Fatal(err)
			}
			tracePageSink = resp
		}
	})
}
