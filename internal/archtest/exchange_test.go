package archtest

import (
	"go/ast"
	"path"
	"slices"
	"testing"
)

// An operator's input is repartitioned in one place: internal/physical's
// exchange.go, whose ExchangeExec is a plan node the adaptive driver can find.
// A call to an rdd exchange primitive or to BuildStage anywhere else in
// internal/physical is an operator shuffling or collecting its input inside
// its own Execute again. (internal/rangejoin's interval join still collects
// its build side through BuildStage.)

// exchangePrimitives are the rdd functions that repartition an RDD.
var exchangePrimitives = []string{"PartitionByHashCodec", "PartitionByFuncCodec", "ExchangePresplit", "Coalesce", "Regroup"}

// exchangeCalls returns the calls to an rdd exchange primitive or to
// BuildStage in internal/physical's non-test files other than exchange.go.
func exchangeCalls(t *testing.T, root string) []string {
	t.Helper()
	files, err := ParseFiles(root, func(rel string) bool {
		return path.Dir(rel) == "internal/physical" && path.Base(rel) != "exchange.go"
	})
	if err != nil {
		t.Fatal(err)
	}
	return callStrings(FindCalls(files, func(f File, call *ast.CallExpr) bool {
		if id, ok := call.Fun.(*ast.Ident); ok {
			return id.Name == "BuildStage"
		}
		local := f.ImportName("repro/internal/rdd")
		return local != "" && slices.ContainsFunc(exchangePrimitives, func(name string) bool { return IsSelector(call.Fun, local, name) })
	}))
}

func TestExchangesOnlyInExchange(t *testing.T) {
	if bad := exchangeCalls(t, "../.."); len(bad) > 0 {
		t.Fatalf("internal/physical repartitions an operator's input outside exchange.go: %v", bad)
	}
}

// The fixture's physical package holds cuts of the joins, the aggregate and
// the fused join from before exchanges were plan nodes, and the global sort's
// range partitioning: each shuffles or collects its own input.
func TestExchangeGateFires(t *testing.T) {
	if got, want := exchangeCalls(t, "testdata/fixture"), []string{
		"internal/physical/extsort.go:197 in rangePartition",
		"internal/physical/extsort.go:199 in rangePartition",
		"internal/physical/partialagg.go:9 in HashAggregateExec.finalMerge",
		"internal/physical/shuffledjoin.go:17 in BroadcastHashJoinExec.Execute",
		"internal/physical/shuffledjoin.go:28 in ShuffledHashJoinExec.Execute",
		"internal/physical/shuffledjoin.go:29 in ShuffledHashJoinExec.Execute",
		"internal/physical/shuffledjoin.go:34 in NestedLoopJoinExec.Execute",
		"internal/physical/vecjoin.go:13 in FusedBroadcastJoinExec.buildStage",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: exchange calls reported %v, want %v", got, want)
	}
}
