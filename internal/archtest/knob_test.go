package archtest

import (
	"go/ast"
	"slices"
	"strings"
	"testing"
)

// A knob is declared once: core.Config carries every engine knob and
// core.ClusterOptions the cluster's; optimizer.Config and
// physical.PlannerConfig are the views derived from them. A knob field in a
// struct anywhere else, a second ClusterOptions or an AdaptiveConfig is a
// hand-copied mirror coming back; so is a knob field in the session spec or a
// spec.<Knob> read in the worker's buildContext (the spec carries the
// coordinator's Config whole).

// knobs are the engine knobs' field names.
var knobs = []string{"Codegen", "LogicalOptimization", "SourcePushdown", "JoinReorder", "PipelineCollapse",
	"Vectorized", "Fusion", "BroadcastThreshold", "TargetPartitionBytes", "ShufflePartitions"}

// knobHomes are the packages whose structs may declare a knob field.
var knobHomes = []string{"internal/core", "internal/optimizer", "internal/physical"}

// specKnobs are the fields the session spec must not carry one by one.
var specKnobs = append([]string{"Parallelism", "MemoryBudget"}, knobs...)

func inKnobHome(rel string) bool {
	return slices.ContainsFunc(knobHomes, func(home string) bool { return strings.HasPrefix(rel, home+"/") })
}

// knobMirrors returns, under root: every struct field named a knob, of type
// bool, int or int64, in a non-test file outside knobHomes; every struct type
// named ClusterOptions outside them; and, test files included, every
// identifier AdaptiveConfig.
func knobMirrors(t *testing.T, root string) []string {
	t.Helper()
	all, err := parseFiles(root, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	files := slices.DeleteFunc(slices.Clone(all), func(f File) bool {
		return strings.HasSuffix(f.Rel, "_test.go") || inKnobHome(f.Rel)
	})
	found := StructFields(files, func(name string, typ ast.Expr) bool {
		id, ok := typ.(*ast.Ident)
		return ok && slices.Contains(knobs, name) && slices.Contains([]string{"bool", "int", "int64"}, id.Name)
	})
	found = append(found, FindNodes(files, func(_ File, n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "ClusterOptions" {
			return false
		}
		_, isStruct := ts.Type.(*ast.StructType)
		return isStruct
	})...)
	found = append(found, FindNodes(all, func(_ File, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "AdaptiveConfig"
	})...)
	return callStrings(found)
}

// specCopies returns a knob field of the session spec (any type) and a
// spec.<Knob> read in the worker's buildContext.
func specCopies(t *testing.T, root string) []string {
	t.Helper()
	found := StructFields(parseOnly(t, root, "internal/cluster/sqlwire/sqlwire.go"), func(name string, _ ast.Expr) bool {
		return slices.Contains(specKnobs, name)
	})
	reads := FindNodes(parseOnly(t, root, "internal/cluster/sqlexec/sqlexec.go"), func(_ File, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		return ok && slices.Contains(specKnobs, sel.Sel.Name) && IsSelector(sel, "spec", sel.Sel.Name)
	})
	found = append(found, slices.DeleteFunc(reads, func(c Call) bool { return c.In != "buildContext" })...)
	return callStrings(found)
}

func TestKnobDeclaredOnce(t *testing.T) {
	if bad := knobMirrors(t, "../.."); len(bad) > 0 {
		t.Fatalf("an engine knob is declared outside internal/core's Config again: %v", bad)
	}
}

func TestSessionSpecCarriesConfigWhole(t *testing.T) {
	if bad := specCopies(t, "../.."); len(bad) > 0 {
		t.Fatalf("the session spec carries knobs one by one again: %v", bad)
	}
}

// The fixture declares knobs where they live (core, physical), an alias of
// ClusterOptions, a string field named like a knob, a knob parameter and a
// comment naming one: none is reported. Its api package mirrors two knobs on
// one line, a third in an anonymous struct, a second ClusterOptions, and takes
// an AdaptiveConfig that its test file declares; its session spec carries two
// knobs, and its buildContext copies one (describe's read is not a copy).
func TestKnobGatesFire(t *testing.T) {
	root := "testdata/fixture"
	if got, want := knobMirrors(t, root), []string{
		"internal/api/options.go:6",
		"internal/api/options.go:6",
		"internal/api/options.go:15",
		"internal/cluster/sqlwire/sqlwire.go:7",
		"internal/api/options.go:12",
		"internal/api/options.go:19 in partitions",
		"internal/api/options_test.go:4",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: knob mirrors reported %v, want %v", got, want)
	}
	if got, want := specCopies(t, root), []string{
		"internal/cluster/sqlwire/sqlwire.go:6",
		"internal/cluster/sqlwire/sqlwire.go:7",
		"internal/cluster/sqlexec/sqlexec.go:11 in buildContext",
	}; !slices.Equal(got, want) {
		t.Errorf("fixture: spec copies reported %v, want %v", got, want)
	}
}
