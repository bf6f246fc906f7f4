package forbid_test

import (
	"testing"

	"teleport/internal/analysis"
	"teleport/internal/analysis/analysistest"
	"teleport/internal/analysis/forbid"
)

// analyzer returns the rule named name.
func analyzer(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, a := range forbid.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no forbid rule named %s", name)
	return nil
}

func TestWalltime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analyzer(t, "walltime"), "walltime")
}

func TestSeededrand(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analyzer(t, "seededrand"), "seededrand")
}

func TestFilterExemptsVirtualClockPackages(t *testing.T) {
	f := analyzer(t, "walltime").DefaultFilter
	for _, exempt := range []string{"teleport/internal/sim", "teleport/internal/hw"} {
		if f(exempt) {
			t.Errorf("filter should exempt %s", exempt)
		}
	}
	for _, checked := range []string{"teleport/internal/core", "teleport/cmd/ddcsim", "teleport"} {
		if !f(checked) {
			t.Errorf("filter should include %s", checked)
		}
	}
}

func TestFilterScopesToInternal(t *testing.T) {
	f := analyzer(t, "seededrand").DefaultFilter
	if !f("teleport/internal/graph") {
		t.Error("filter should include internal packages")
	}
	if f("teleport/cmd/datagen") {
		t.Error("filter should exclude cmd packages")
	}
}
