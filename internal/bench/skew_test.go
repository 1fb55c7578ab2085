package bench

import (
	"io"
	"testing"

	"dotprov/internal/device"
)

// TestSkewPartitionedBeatsObject is the tentpole's acceptance gate at the
// harness level (benchguard asserts the same property on the recorded
// benchmarks): on the Zipf hot/cold fixture, partition-granular DOT meets
// the same SLA as object-granular DOT at strictly lower storage cost, on
// both of the paper's boxes.
func TestSkewPartitionedBeatsObject(t *testing.T) {
	for _, boxFn := range []func() *device.Box{device.Box1, device.Box2} {
		box := boxFn()
		cmp, err := CompareSkew(box)
		if err != nil {
			t.Fatal(err)
		}
		if !cmp.Object.Feasible || !cmp.Partitioned.Feasible {
			t.Fatalf("%s: both granularities must be feasible at SLA %g: object=%v partitioned=%v",
				cmp.Box, SkewSLA, cmp.Object.Feasible, cmp.Partitioned.Feasible)
		}
		if cmp.Partitioned.StorageCents >= cmp.Object.StorageCents {
			t.Fatalf("%s: partitioned storage %.6e not strictly below object-granular %.6e",
				cmp.Box, cmp.Partitioned.StorageCents, cmp.Object.StorageCents)
		}
		if cmp.Partitioned.SplitObjects == 0 {
			t.Errorf("%s: expected at least one object split across classes", cmp.Box)
		}
		if cmp.Partitioned.Units <= cmp.Object.Units {
			t.Errorf("%s: expected more units (%d) than objects (%d)",
				cmp.Box, cmp.Partitioned.Units, cmp.Object.Units)
		}
	}
}

// TestSkewExperimentRuns keeps the registered experiment printable.
func TestSkewExperimentRuns(t *testing.T) {
	f, err := Skew(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.BoxRows) != 2 || len(f.Layouts) != 4 {
		t.Fatalf("expected rows for both boxes and both granularities' layouts on each, got %d and %d",
			len(f.BoxRows), len(f.Layouts))
	}
}
