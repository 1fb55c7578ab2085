package workload

// Test hooks for the external test package (package workload_test), which
// drives the plan-aware estimator over TPC-H — internal/tpch imports this
// package, so those tests cannot live inside it.

// SetCostTableLimit overrides how many plan times a DSS estimator (bare or
// compiled) retains; 0 makes every lookup plan.
func SetCostTableLimit(est Estimator, n int64) { dssOf(est).limit = n }

// CostTableRetained reports how many plan times the estimator's current
// tables hold.
func CostTableRetained(est Estimator) int64 {
	if t := dssOf(est).tab.Load(); t != nil {
		return t.retained.Load()
	}
	return 0
}

func dssOf(est Estimator) *dssEstimator {
	if c, ok := est.(compiledDSS); ok {
		return c.dssEstimator
	}
	return est.(*dssEstimator)
}
