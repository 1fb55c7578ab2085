package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"dotprov/internal/engine"
	"dotprov/internal/iosim"
	"dotprov/internal/workload"
)

// Standard TPC-C transaction mix (percent).
const (
	mixNewOrder    = 45
	mixPayment     = 43
	mixOrderStatus = 4
	mixDelivery    = 4
	// StockLevel takes the remainder (4%).
)

// Driver runs the TPC-C mix against a database and measures tpmC (New-Order
// transactions per minute) on the virtual clock. The paper uses DBT-2 with
// 300 connections, 1 terminal/warehouse, no think time and a 1-hour
// measured period (§4.5); Workers and Period are that knob pair, scaled.
type Driver struct {
	Cfg     Config
	Workers int
	Period  time.Duration // virtual measured period per worker
	Seed    int64
}

// RunResult reports one measured TPC-C run.
type RunResult struct {
	Metrics   workload.Metrics // Throughput = New-Order transactions/hour
	TpmC      float64
	TotalTxns int64
	Profile   iosim.Profile
	CPUTime   time.Duration
	Stats     workload.RunStats
}

// Run executes the mix on the engine's current layout. Each worker is bound
// to a home warehouse round-robin and runs on its own virtual clock until
// the period elapses; throughput aggregates across workers.
func (d *Driver) Run(db *engine.DB) (*RunResult, error) {
	if d.Workers < 1 {
		return nil, fmt.Errorf("tpcc: driver needs at least 1 worker")
	}
	db.SetConcurrency(d.Workers)
	profile := iosim.NewProfile()
	res := &RunResult{Profile: profile}
	var maxElapsed time.Duration
	for w := 0; w < d.Workers; w++ {
		sess, err := db.NewSession()
		if err != nil {
			return nil, err
		}
		st := &txnState{
			cfg: d.Cfg,
			r:   rand.New(rand.NewSource(d.Seed + int64(w)*7919)),
			w:   w % d.Cfg.Warehouses,
		}
		for sess.Acct().Now() < d.Period {
			if err := d.dispatch(st, sess); err != nil {
				return nil, fmt.Errorf("tpcc: worker %d: %w", w, err)
			}
			res.TotalTxns++
		}
		if e := sess.Acct().Now(); e > maxElapsed {
			maxElapsed = e
		}
		profile.Merge(sess.Acct().Profile())
		res.CPUTime += sess.Acct().CPUTime()
		res.Metrics.Throughput += float64(st.last.newOrders)
	}
	if maxElapsed <= 0 {
		return nil, fmt.Errorf("tpcc: no virtual time elapsed")
	}
	newOrders := res.Metrics.Throughput
	res.Metrics.Elapsed = maxElapsed
	res.Metrics.Throughput = newOrders / maxElapsed.Hours()
	res.TpmC = newOrders / maxElapsed.Minutes()
	res.Stats = workload.RunStats{Txns: int64(newOrders), Elapsed: maxElapsed}
	return res, nil
}

func (d *Driver) dispatch(st *txnState, sess *engine.Session) error {
	switch p := st.r.Intn(100); {
	case p < mixNewOrder:
		return st.NewOrder(sess)
	case p < mixNewOrder+mixPayment:
		return st.Payment(sess)
	case p < mixNewOrder+mixPayment+mixOrderStatus:
		return st.OrderStatus(sess)
	case p < mixNewOrder+mixPayment+mixOrderStatus+mixDelivery:
		return st.Delivery(sess)
	default:
		return st.StockLevel(sess)
	}
}

// Estimator builds the profile-based throughput estimator from a test run
// executed on the engine's current layout (paper §4.5.1: a short test run
// on the All H-SSD layout supplies actual I/O statistics; the I/O profile
// table at the target concurrency then prices candidate layouts).
func (d *Driver) Estimator(db *engine.DB, run *RunResult) (*workload.ProfileEstimator, error) {
	return workload.NewProfileEstimator(db.Box, d.Workers, run.Profile, run.CPUTime, run.Stats, db.Layout())
}
