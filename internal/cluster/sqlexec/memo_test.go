package sqlexec

import (
	"fmt"
	"testing"

	sparksql "repro"
	"repro/internal/cluster"
	"repro/internal/row"
	"repro/internal/types"
)

// A worker holds cluster.MemoCapacity built statements: one more evicts the
// least recently used, and that statement, asked for again, is rebuilt and
// answers as it did.
func TestWorkerStatementMemoBounded(t *testing.T) {
	ctx := sparksql.NewContextWithConfig(sparksql.DefaultConfig())
	schema := types.NewStruct(types.StructField{Name: "k", Type: types.Long}, types.StructField{Name: "v", Type: types.Long})
	rows := make([]row.Row, 300)
	for i := range rows {
		rows[i] = row.Row{int64(i), int64(i * 7 % 41)}
	}
	df, err := ctx.CreateDataFrame(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	df.RegisterTempTable("t")
	s := &session{epoch: 1, ctx: ctx, built: make(cluster.Memo[*builtQuery])}
	statement := func(i int) string {
		return fmt.Sprintf("SELECT k %% %d AS g, SUM(v) FROM t GROUP BY k %% %d ORDER BY g", i+2, i+2)
	}
	answer := func(i int) (*builtQuery, string) {
		t.Helper()
		bq, err := s.query("s", statement(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := bq.rdd.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return bq, fmt.Sprint(rows)
	}

	evicted, want := answer(0)
	for i := 1; i <= cluster.MemoCapacity; i++ {
		answer(i)
	}
	if len(s.built) != cluster.MemoCapacity {
		t.Fatalf("%d distinct statements left %d built, want %d", cluster.MemoCapacity+1, len(s.built), cluster.MemoCapacity)
	}
	rebuilt, got := answer(0)
	if rebuilt == evicted {
		t.Fatal("the least recently used statement was not evicted")
	}
	if got != want || len(s.built) != cluster.MemoCapacity {
		t.Fatalf("the rebuilt statement answers %s, first %s; %d built", got, want, len(s.built))
	}
}
