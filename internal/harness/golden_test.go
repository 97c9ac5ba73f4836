package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestFigure5GoldenDefaultPolicy pins the default contention-management
// policy to the pre-refactor behavior: the small-scale Figure 5 sweep
// under CappedExponential must reproduce the golden capture byte for
// byte — same simulated cycle counts, same speedups, same stats. Any
// change to backoff timing, RNG draw order, or retry structure shows up
// here first. Regenerate (deliberately!) with `go test -run
// TestFigure5Golden -update ./internal/harness/`.
func TestFigure5GoldenDefaultPolicy(t *testing.T) {
	opt := DefaultOptions()
	opt.Params.Seed = 1 // the tmsim -seed default the golden was captured with
	data, err := Parallel(0).Figure5(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFigure5(&sb, data, ScaleSmall)
	got := sb.String()

	golden := filepath.Join("testdata", "fig5_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Figure 5 output drifted from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFigure5GoldenReferenceScheduler runs the same small-scale Figure 5
// sweep with every cell's machine under the reference scheduler
// (machine.Params.ReferenceScheduler, the executable specification,
// DESIGN.md §12) and requires the rendered output to match the same
// golden capture byte for byte. The golden was produced by the run-ahead
// fast path, so passing here is the end-to-end bit-identity proof that
// the fast path follows the specification across every system and
// thread count the figure sweeps.
func TestFigure5GoldenReferenceScheduler(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fig5_small.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	opt := DefaultOptions()
	opt.Params.Seed = 1
	opt.Params.ReferenceScheduler = true
	data, err := Parallel(0).Figure5(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFigure5(&sb, data, ScaleSmall)
	if sb.String() != string(golden) {
		t.Errorf("reference-scheduler Figure 5 output drifted from the golden:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), golden)
	}
}
