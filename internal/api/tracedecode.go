package api

import (
	"encoding/json"
	"math"
)

// DecodeTraceResponse decodes a POST /v1/trace/query response body into a
// fresh TraceResponse.
//
// A trace page is the largest body a client routinely decodes, so the shape
// the server writes (json.Encoder output: compact, keys in field order,
// plain-ASCII unescaped strings, integers in canonical form) is parsed in a
// single pass with no reflection. Any byte that departs from that shape
// hands the whole body to json.Unmarshal on a fresh value instead, so the
// result, and the error when there is one, is always exactly what
// encoding/json would return.
func DecodeTraceResponse(data []byte) (TraceResponse, error) {
	d := traceDecoder{b: data}
	if resp, ok := d.response(); ok {
		return resp, nil
	}
	var resp TraceResponse
	err := json.Unmarshal(data, &resp)
	return resp, err
}

// minRecordJSON is the length of the shortest canonical record (empty
// strings, zero numbers); len(body)/minRecordJSON bounds a page's record
// count, so the records slice is allocated once.
var minRecordJSON = func() int {
	b, err := json.Marshal(TraceRecord{})
	if err != nil {
		panic(err)
	}
	return len(b)
}()

// traceDecoder is a cursor over one canonical trace page. Every method
// reports false at the first byte outside the canonical shape.
type traceDecoder struct {
	b []byte
	i int
}

func (d *traceDecoder) response() (TraceResponse, bool) {
	var resp TraceResponse
	var ok bool
	if !d.lit(`{"job":`) {
		return resp, false
	}
	if resp.Job, ok = d.str(); !ok || !d.lit(`,"records":[`) {
		return resp, false
	}
	resp.Records = make([]TraceRecord, 0, len(d.b)/minRecordJSON)
	if !d.lit(`]`) {
		for {
			resp.Records = append(resp.Records, TraceRecord{})
			if !d.record(&resp.Records[len(resp.Records)-1]) {
				return resp, false
			}
			if d.lit(`]`) {
				break
			}
			if !d.lit(`,`) {
				return resp, false
			}
		}
	}
	if !d.lit(`,"total":`) {
		return resp, false
	}
	if resp.Total, ok = d.readInt(); !ok {
		return resp, false
	}
	if d.lit(`,"next":{"rank":`) {
		var c TraceCursor
		if c.Rank, ok = d.readInt(); !ok || !d.lit(`,"time_ns":`) {
			return resp, false
		}
		if c.TimeNs, ok = d.readInt64(math.MinInt64, math.MaxInt64); !ok || !d.lit(`,"emitted":`) {
			return resp, false
		}
		if c.Emitted, ok = d.readInt(); !ok || !d.lit(`}`) {
			return resp, false
		}
		resp.Next = &c
	}
	if !d.lit(`}`) {
		return resp, false
	}
	// json.Encoder ends the body with one newline.
	rest := d.b[d.i:]
	return resp, len(rest) == 0 || len(rest) == 1 && rest[0] == '\n'
}

// record parses one canonical TraceRecord object.
func (d *traceDecoder) record(r *TraceRecord) bool {
	var ok bool
	if !d.lit(`{"kind":`) {
		return false
	}
	if r.Kind, ok = d.str(); !ok || !d.lit(`,"time_ns":`) {
		return false
	}
	if r.TimeNs, ok = d.readInt64(math.MinInt64, math.MaxInt64); !ok || !d.lit(`,"ip":`) {
		return false
	}
	if r.IP, ok = d.str(); !ok || !d.lit(`,"comm_id":`) {
		return false
	}
	if r.CommID, ok = d.readUint(math.MaxUint64); !ok || !d.lit(`,"rank":`) {
		return false
	}
	if r.Rank, ok = d.readInt(); !ok || !d.lit(`,"gpu_id":`) {
		return false
	}
	if r.GPUID, ok = d.readInt32(); !ok || !d.lit(`,"channel":`) {
		return false
	}
	if r.Channel, ok = d.readInt32(); !ok || !d.lit(`,"qp_id":`) {
		return false
	}
	if r.QPID, ok = d.readInt32(); !ok || !d.lit(`,"op":`) {
		return false
	}
	if r.Op, ok = d.str(); !ok || !d.lit(`,"op_seq":`) {
		return false
	}
	if r.OpSeq, ok = d.readUint(math.MaxUint64); !ok || !d.lit(`,"msg_size":`) {
		return false
	}
	if r.MsgSize, ok = d.readInt64(math.MinInt64, math.MaxInt64); !ok || !d.lit(`,"start_ns":`) {
		return false
	}
	if r.StartNs, ok = d.readInt64(math.MinInt64, math.MaxInt64); !ok || !d.lit(`,"end_ns":`) {
		return false
	}
	if r.EndNs, ok = d.readInt64(math.MinInt64, math.MaxInt64); !ok || !d.lit(`,"total_chunks":`) {
		return false
	}
	if r.TotalChunks, ok = d.readUint32(); !ok || !d.lit(`,"gpu_ready":`) {
		return false
	}
	if r.GPUReady, ok = d.readUint32(); !ok || !d.lit(`,"rdma_transmitted":`) {
		return false
	}
	if r.RDMATransmitted, ok = d.readUint32(); !ok || !d.lit(`,"rdma_done":`) {
		return false
	}
	if r.RDMADone, ok = d.readUint32(); !ok || !d.lit(`,"stuck_ns":`) {
		return false
	}
	if r.StuckNs, ok = d.readInt64(math.MinInt64, math.MaxInt64); !ok || !d.lit(`}`) {
		return false
	}
	return true
}

// lit consumes s when the input continues with it.
func (d *traceDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str consumes a quoted string of printable ASCII with no escapes;
// anything else (escapes, control or non-ASCII bytes) is left to
// encoding/json.
func (d *traceDecoder) str() (string, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return "", false
	}
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return string(d.b[start:j]), true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return "", false
		}
	}
	return "", false
}

// readUint consumes a canonical unsigned integer (no sign, no leading zero, no
// fraction or exponent) no larger than hi.
func (d *traceDecoder) readUint(hi uint64) (uint64, bool) {
	start := d.i
	var v uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		digit := uint64(d.b[d.i] - '0')
		if v > (hi-digit)/10 {
			return 0, false
		}
		v = v*10 + digit
		d.i++
	}
	n := d.i - start
	if n == 0 || n > 1 && d.b[start] == '0' {
		return 0, false
	}
	return v, true
}

// readInt64 consumes a canonical signed integer within [lo, hi]; "-0" is not
// canonical.
func (d *traceDecoder) readInt64(lo, hi int64) (int64, bool) {
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
		// Magnitudes are offset by one so |MinInt64| does not overflow.
		v, ok := d.readUint(uint64(-(lo + 1)) + 1)
		if !ok || v == 0 {
			return 0, false
		}
		return -int64(v-1) - 1, true
	}
	v, ok := d.readUint(uint64(hi))
	return int64(v), ok
}

func (d *traceDecoder) readInt() (int, bool) {
	v, ok := d.readInt64(math.MinInt, math.MaxInt)
	return int(v), ok
}

func (d *traceDecoder) readInt32() (int32, bool) {
	v, ok := d.readInt64(math.MinInt32, math.MaxInt32)
	return int32(v), ok
}

func (d *traceDecoder) readUint32() (uint32, bool) {
	v, ok := d.readUint(math.MaxUint32)
	return uint32(v), ok
}
