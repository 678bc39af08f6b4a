package sqlexec

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/cluster/sqlwire"
	"repro/internal/row"
	"repro/internal/types"
)

// A decision list the worker cannot decode, or cannot apply to its static
// plan, refuses the task as a fallback (the coordinator computes the
// partition itself) and leaves nothing cached: the worker never runs the
// static plan in the adapted plan's place.
func TestWorkerRefusesBadDecisions(t *testing.T) {
	ctx := sparksql.NewContextWithConfig(sparksql.DefaultConfig())
	schema := types.NewStruct(types.StructField{Name: "k", Type: types.Long}, types.StructField{Name: "v", Type: types.Long})
	df, err := ctx.CreateDataFrame(schema, []row.Row{{int64(1), int64(2)}, {int64(3), int64(4)}})
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("t")
	e := NewExecutor()
	s := &session{epoch: 1, ctx: ctx, built: make(map[string]*builtQuery)}
	e.sessions["s"] = s

	for _, c := range []struct{ decisions, want string }{
		{`[{"stage":"one","kind":"coalesce"}]`, "decisions: json"},
		{`[{"stage":99,"kind":"coalesce","parts":1}]`, "coalesce decision names stage 99"},
		{`[{"stage":0,"kind":"promote","buildRight":true}]`, "promote decision on"},
	} {
		payload, err := sqlwire.EncodeQuery(&sqlwire.QueryTask{SessionID: "s", Epoch: 1,
			SQL: "SELECT k, COUNT(*) FROM t GROUP BY k", NumPartitions: 1, Decisions: json.RawMessage(c.decisions)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.handlePartition(context.Background(), nil, payload)
		var fb *cluster.FallbackError
		if !errors.As(err, &fb) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("decisions %s: got %v, want a fallback naming %q", c.decisions, err, c.want)
		}
	}
	if len(s.built) != 0 {
		t.Fatalf("a refused task cached %d plans", len(s.built))
	}
}
