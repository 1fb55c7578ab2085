package core_test

import (
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

// TestShippedEstimatorsCompile: every estimator this repository ships
// compiles to a CompactEstimator for the alphabets the searches
// enumerate — the singleton alphabets of Box 1 and Box 2 and the two-copy
// alphabet of the HTAP box — except the plan-aware DSS estimator on a
// multi-member alphabet, which has no replica routing and declines. A
// shipped estimator that silently stopped compiling would leave every
// answer right and every search estimating in full through its map form;
// this test is what notices.
func TestShippedEstimatorsCompile(t *testing.T) {
	fx, err := workload.Skewed(workload.SkewedConfig{Tables: 2, Extents: 8})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := catalog.BuildPartitioning(fx.Cat, fx.Stats, catalog.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stats := workload.RunStats{Txns: 10_000, Elapsed: time.Minute}
	for _, bc := range []struct {
		box      *device.Box
		alphabet []device.ClassSet
	}{
		{device.Box1(), device.EnumerateClassSets(device.Box1().Classes(), 1)},
		{device.Box2(), device.EnumerateClassSets(device.Box2().Classes(), 1)},
		{device.BoxHTAP(), device.EnumerateClassSets(device.BoxHTAP().Classes(), 2)},
	} {
		box := bc.box
		replicated := len(bc.alphabet) > len(box.Devices)
		hssd := catalog.NewUniformLayout(fx.Cat, device.HSSD)
		observed := &workload.ObservedEstimator{Box: box, Concurrency: 2, PerQuery: []workload.QueryObservation{
			{Profile: fx.Profile, CPU: time.Second}, {Profile: fx.Profile.Clone(), CPU: 0},
		}}
		profile, err := workload.NewProfileEstimator(box, 4, fx.Profile, time.Second, stats, hssd)
		if err != nil {
			t.Fatal(err)
		}
		setProfile, err := workload.NewSetProfileEstimator(box, 4, fx.Profile, time.Second, stats, catalog.SingletonSetLayout(hssd))
		if err != nil {
			t.Fatal(err)
		}
		type shipped struct {
			name string
			cat  *catalog.Catalog
			est  workload.Estimator
		}
		ests := []shipped{
			{"observed", fx.Cat, observed},
			{"profile", fx.Cat, profile},
			{"set-profile", fx.Cat, setProfile},
			{"skew fixture", fx.Cat, fx.Estimator(box, 1)},
		}
		for _, src := range []shipped{{"observed", fx.Cat, observed}, {"profile", fx.Cat, profile}} {
			unit, _, err := workload.PartitionEstimator(src.est, pt)
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, shipped{"partitioned " + src.name, pt.UnitCatalog(), unit})
		}
		dss := newDSSEnv(t, box, true, tpch.SubsetWorkload)
		ests = append(ests, shipped{"dss", dss.db.Cat, dss.in.Est})

		for _, e := range ests {
			compiled := workload.CompileEstimator(e.est, e.cat, bc.alphabet...)
			_, compact := compiled.(workload.CompactEstimator)
			if e.name == "dss" && replicated {
				if compact {
					t.Errorf("%s on %s: compiled for a multi-member alphabet it cannot route", e.name, box.Name)
				}
				continue
			}
			if !compact {
				t.Errorf("%s on %s: CompileEstimator returned %T, not a compiled form", e.name, box.Name, compiled)
			}
		}
	}
}
