package sqlwire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"repro/internal/columnar"
	"repro/internal/metrics"
	"repro/internal/row"
)

// The decoders read bytes that crossed a process boundary. Whatever the
// input, they return an error or a value — never panic — and a value they
// accept is stable: encoding it and decoding that again reproduces the
// same encoding (decode∘encode∘decode is a fixed point), so a worker and
// a coordinator can never disagree about what a payload said.

// fixedPoint checks that property for one decoder/encoder pair.
func fixedPoint[T any](t *testing.T, in []byte, decode func([]byte) (*T, error), encode func(*T) ([]byte, error)) {
	t.Helper()
	v, err := decode(in)
	if err != nil {
		return
	}
	once, err := encode(v)
	if err != nil {
		t.Fatalf("decoded value does not encode: %v", err)
	}
	again, err := decode(once)
	if err != nil {
		t.Fatalf("own encoding rejected: %v\n%q", err, once)
	}
	twice, err := encode(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("not a fixed point:\n%q\n%q", once, twice)
	}
}

// garbageSeeds are the malformed payloads TestDecodeRejectsGarbage pins.
var garbageSeeds = [][]byte{nil, []byte("{"), []byte(`{"id":1}`), []byte(`{"id":"x"} extra`), []byte(`{"sql":3}`)}

func FuzzDecodeSession(f *testing.F) {
	seed, err := EncodeSession(&SessionSpec{
		ID: "s1", Epoch: 3,
		Config:        json.RawMessage(`{"Codegen":true,"Vectorized":true,"BroadcastThreshold":10485760,"ShufflePartitions":4,"Parallelism":4}`),
		BackoffBaseNS: 1000, BackoffSeed: 42,
		Chaos: ChaosSpec{Enabled: true, Seed: 7, FailureRate: 0.1, FailedAttempts: 2},
		Tables: []TableSpec{{
			Name: "rankings", Cached: true,
			Fields:     []FieldSpec{{Name: "pageURL", Type: "STRING"}, {Name: "pageRank", Type: "INT", Nullable: true}},
			Partitions: [][]byte{{1, 2}, {3}},
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"id":"s","tables":[{"name":"t","partitions":[null,""]}],"chaos":{"failureRate":1e-9}}`))
	f.Add([]byte(`{"id":"s","config":{ "Codegen" : true, "x":"<&>"},"tables":null}`))
	for _, g := range garbageSeeds {
		f.Add(g)
	}
	f.Fuzz(func(t *testing.T, in []byte) { fixedPoint(t, in, DecodeSession, EncodeSession) })
}

func FuzzDecodeQuery(f *testing.F) {
	for _, q := range []*QueryTask{
		{SessionID: "s", Epoch: 1, SQL: "SELECT 1", Partition: 2, NumPartitions: 4},
		{SessionID: "s1", Epoch: 3, SQL: "SELECT 1", Partition: 2, NumPartitions: 4, PlanHash: 0xBEEF,
			TraceID: "q-1-7", ParentSpan: "q-1-7/p2",
			Decisions: json.RawMessage(`[{"stage":3,"kind":"skew","parts":2,"splits":[3,1],"note":"n"}]`)},
	} {
		seed, err := EncodeQuery(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"sql":"\ud800","decisions":[]}`))
	for _, g := range garbageSeeds {
		f.Add(g)
	}
	f.Fuzz(func(t *testing.T, in []byte) { fixedPoint(t, in, DecodeQuery, EncodeQuery) })
}

func FuzzDecodeTaskReply(f *testing.F) {
	block, err := columnar.EncodeBlock([]row.Row{{"10.0.0.1", 2.5}, {"10.0.0.2", nil}})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*TaskReply{
		{Worker: "w2", Rows: block},
		{Worker: "w1", Rows: []byte{1, 2, 3},
			Spans:    []metrics.Span{{Kind: metrics.SpanTask, Name: "scan", Partition: 2, Trace: "q-1-7", Parent: "q-1-7/p2", Worker: "w1", Records: 10}},
			Counters: []CounterSample{{Name: "rdd.tasks.run", Value: 5}}},
		{Worker: "w0"},
	} {
		seed, err := EncodeTaskReply(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{0x80})                             // truncated length prefix
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'}) // a row block longer than the reply
	f.Add([]byte{1, 9, '{', '}', ' ', 'x'})         // trailing garbage
	f.Fuzz(func(t *testing.T, in []byte) {
		fixedPoint(t, in, DecodeTaskReply, EncodeTaskReply)
		// The row block rides raw behind its length: what decodes is the bytes
		// that were sent.
		if r, err := DecodeTaskReply(in); err == nil {
			if _, k := binary.Uvarint(in); !bytes.Equal(r.Rows, in[k:k+len(r.Rows)]) {
				t.Fatalf("row block mangled: %q", r.Rows)
			}
		}
	})
}
