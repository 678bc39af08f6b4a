package sqlwire

import (
	"encoding/json"
	"testing"

	"repro/internal/types"
)

func TestSessionRoundTrip(t *testing.T) {
	spec := &SessionSpec{
		ID:            "s1",
		Epoch:         3,
		Config:        json.RawMessage(`{"Codegen":true,"Vectorized":true,"ShufflePartitions":4,"Parallelism":4}`),
		BackoffBaseNS: 1000,
		BackoffSeed:   42,
		Chaos:         ChaosSpec{Enabled: true, Seed: 7, FailureRate: 0.1, FailedAttempts: 2},
		Tables: []TableSpec{{
			Name:       "rankings",
			Cached:     true,
			Fields:     []FieldSpec{{Name: "pageURL", Type: "STRING"}, {Name: "pageRank", Type: "INT", Nullable: true}},
			Partitions: [][]byte{{1, 2}, {3}},
		}},
	}
	b, err := EncodeSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSession(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "s1" || got.Epoch != 3 || len(got.Tables) != 1 || got.Tables[0].Name != "rankings" ||
		!got.Tables[0].Cached || len(got.Tables[0].Partitions) != 2 ||
		string(got.Tables[0].Partitions[0]) != string([]byte{1, 2}) ||
		!got.Chaos.Enabled || got.Chaos.FailedAttempts != 2 {
		t.Fatalf("round trip mangled spec: %+v", got)
	}
	var knobs struct {
		Codegen, Vectorized bool
		Parallelism         int
	}
	if err := DecodeConfig(got.Config, &knobs); err != nil || !knobs.Codegen || !knobs.Vectorized || knobs.Parallelism != 4 {
		t.Fatalf("config round trip: %+v, %v", knobs, err)
	}
	if err := DecodeConfig(json.RawMessage(`{"Codegen":true} {}`), &knobs); err == nil {
		t.Fatal("DecodeConfig accepted trailing data")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	b, err := EncodeQuery(&QueryTask{SessionID: "s", Epoch: 1, SQL: "SELECT 1", Partition: 2, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeQuery(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.SQL != "SELECT 1" || q.Partition != 2 || q.NumPartitions != 4 {
		t.Fatalf("got %+v", q)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("{"), []byte(`{"id":1}`), []byte(`{"id":"x"} extra`)} {
		if _, err := DecodeSession(b); err == nil {
			t.Fatalf("DecodeSession(%q) accepted garbage", b)
		}
		if _, err := DecodeQuery([]byte(`{"sql":3}`)); err == nil {
			t.Fatal("DecodeQuery accepted type-mismatched payload")
		}
	}
}

func TestTypeNameRoundTrip(t *testing.T) {
	all := []types.DataType{
		types.Null, types.Boolean, types.Int, types.Long, types.Float,
		types.Double, types.String, types.Binary, types.Date, types.Timestamp,
		types.DecimalType{Precision: 10, Scale: 2},
	}
	for _, dt := range all {
		name, ok := TypeName(dt)
		if !ok {
			t.Fatalf("TypeName(%v) not shippable", dt)
		}
		back, err := TypeFromName(name)
		if err != nil {
			t.Fatal(err)
		}
		if back != dt {
			t.Fatalf("%v round-tripped to %v", dt, back)
		}
	}
	if _, ok := TypeName(types.ArrayType{Elem: types.Int}); ok {
		t.Fatal("array type should not be shippable")
	}
	if _, err := TypeFromName("WIBBLE"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSchemaConversion(t *testing.T) {
	schema := types.NewStruct(
		types.StructField{Name: "a", Type: types.Int, Nullable: true},
		types.StructField{Name: "b", Type: types.String},
	)
	fields, ok := Fields(schema)
	if !ok {
		t.Fatal("schema should be shippable")
	}
	back, err := Schema(fields)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Fields) != 2 || back.Fields[0].Name != "a" || back.Fields[0].Type != types.Int ||
		!back.Fields[0].Nullable || back.Fields[1].Type != types.String {
		t.Fatalf("schema mangled: %+v", back)
	}
	if _, ok := Fields(types.NewStruct(types.StructField{Name: "x", Type: types.ArrayType{Elem: types.Int}})); ok {
		t.Fatal("array column should make schema unshippable")
	}
}
