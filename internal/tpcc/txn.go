package tpcc

import (
	"fmt"
	"math/rand"

	"dotprov/internal/engine"
	"dotprov/internal/pagestore"
	"dotprov/internal/types"
)

// txnState carries per-worker transaction context.
type txnState struct {
	cfg  Config
	r    *rand.Rand
	w    int // home warehouse
	seq  int64
	last struct{ newOrders int64 }
	// StockLevel's scratch: its copy of an order's item ids, which it
	// keeps while looking up their stock (a LookupEq result lives only
	// until the session's next LookupEq), and the items it has seen.
	items []int64
	seen  map[int64]bool
	// upd is the one row a transaction is editing: edit copies a borrowed
	// lookup result into it, and the next edit overwrites it.
	upd types.Tuple
}

// edit copies row into the worker's edit scratch and returns it, for the
// caller to change and write back. It is valid until the next edit.
func (t *txnState) edit(row types.Tuple) types.Tuple {
	t.upd = append(t.upd[:0], row...)
	return t.upd
}

func ival(v types.Value) int64   { return v.Int }
func fval(v types.Value) float64 { return v.F }

// NewOrderTxn is the TPC-C New-Order transaction: the tpmC unit of work.
// 1% of transactions abort on an invalid item (the work still executes, as
// in the benchmark).
func (t *txnState) NewOrder(sess *engine.Session) error {
	cfg := t.cfg
	d := t.r.Intn(cfg.DistrictsPerW)
	// District: read and bump d_next_o_id.
	dTuples, dRids, err := sess.LookupEq("district_pkey", types.NewInt(int64(t.w)), types.NewInt(int64(d)))
	if err != nil {
		return err
	}
	if len(dTuples) != 1 {
		return fmt.Errorf("tpcc: district (%d,%d) missing", t.w, d)
	}
	dist := t.edit(dTuples[0])
	oid := ival(dist[4])
	dist[4] = types.NewInt(oid + 1)
	if err := sess.UpdateByRID("district", dRids[0], dist); err != nil {
		return err
	}
	// Warehouse tax, customer discount.
	if _, _, err := sess.LookupEq("warehouse_pkey", types.NewInt(int64(t.w))); err != nil {
		return err
	}
	c := nonUniform(t.r, 255, cfg.CustomersPerDist-1)
	if _, _, err := sess.LookupEq("customer_pkey",
		types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(int64(c))); err != nil {
		return err
	}
	olCnt := 5 + t.r.Intn(6)
	// Order + new_order.
	if err := sess.Insert("orders", types.Tuple{
		types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(oid),
		types.NewInt(int64(c)), types.NewDate(11000 + t.seq), types.NewInt(0), types.NewInt(int64(olCnt)),
	}); err != nil {
		return err
	}
	if err := sess.Insert("new_order", types.Tuple{
		types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(oid),
	}); err != nil {
		return err
	}
	abort := t.r.Intn(100) == 0
	for ol := 0; ol < olCnt; ol++ {
		item := t.r.Intn(cfg.Items)
		if abort && ol == olCnt-1 {
			// Invalid item number: the transaction rolls back after having
			// done its reads; we simply stop issuing the remaining writes.
			break
		}
		if _, _, err := sess.LookupEq("item_pkey", types.NewInt(int64(item))); err != nil {
			return err
		}
		sw := t.w
		if t.cfg.Warehouses > 1 && t.r.Intn(100) == 0 {
			sw = t.r.Intn(cfg.Warehouses) // remote stock (1%)
		}
		sTuples, sRids, err := sess.LookupEq("stock_pkey", types.NewInt(int64(sw)), types.NewInt(int64(item)))
		if err != nil {
			return err
		}
		if len(sTuples) == 1 {
			st := t.edit(sTuples[0])
			q := ival(st[2])
			if q > 10 {
				st[2] = types.NewInt(q - int64(1+t.r.Intn(5)))
			} else {
				st[2] = types.NewInt(q + 91)
			}
			st[3] = types.NewInt(ival(st[3]) + 1)
			st[4] = types.NewInt(ival(st[4]) + 1)
			if err := sess.UpdateByRID("stock", sRids[0], st); err != nil {
				return err
			}
		}
		if err := sess.Insert("order_line", types.Tuple{
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(oid),
			types.NewInt(int64(ol)), types.NewInt(int64(item)),
			types.NewInt(5), types.NewFloat(t.r.Float64() * 9999), types.NewDate(0),
		}); err != nil {
			return err
		}
	}
	t.seq++
	t.last.newOrders++
	return nil
}

// Payment updates warehouse/district YTD, pays a customer (40% located by
// last name through i_customer) and appends a history row.
func (t *txnState) Payment(sess *engine.Session) error {
	cfg := t.cfg
	d := t.r.Intn(cfg.DistrictsPerW)
	amount := 1 + t.r.Float64()*4999

	wT, wR, err := sess.LookupEq("warehouse_pkey", types.NewInt(int64(t.w)))
	if err != nil {
		return err
	}
	if len(wT) == 1 {
		w := t.edit(wT[0])
		w[3] = types.NewFloat(fval(w[3]) + amount)
		if err := sess.UpdateByRID("warehouse", wR[0], w); err != nil {
			return err
		}
	}
	dT, dR, err := sess.LookupEq("district_pkey", types.NewInt(int64(t.w)), types.NewInt(int64(d)))
	if err != nil {
		return err
	}
	if len(dT) == 1 {
		ds := t.edit(dT[0])
		ds[3] = types.NewFloat(fval(ds[3]) + amount)
		if err := sess.UpdateByRID("district", dR[0], ds); err != nil {
			return err
		}
	}

	var cT []types.Tuple
	var cR []pagestore.RID
	if t.r.Intn(100) < 60 {
		c := nonUniform(t.r, 255, cfg.CustomersPerDist-1)
		cT, cR, err = sess.LookupEq("customer_pkey",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(int64(c)))
		if err != nil {
			return err
		}
	} else {
		last := LastName(nonUniform(t.r, 255, 999))
		cT, cR, err = sess.LookupEq("i_customer",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewString(last))
		if err != nil {
			return err
		}
	}
	if len(cT) > 0 {
		mid := len(cT) / 2 // TPC-C picks the median match
		cu := t.edit(cT[mid])
		cu[5] = types.NewFloat(fval(cu[5]) - amount)
		cu[6] = types.NewFloat(fval(cu[6]) + amount)
		cu[7] = types.NewInt(ival(cu[7]) + 1)
		if err := sess.UpdateByRID("customer", cR[mid], cu); err != nil {
			return err
		}
		if err := sess.Insert("history", types.Tuple{
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), cu[2],
			types.NewDate(11000 + t.seq), types.NewFloat(amount),
		}); err != nil {
			return err
		}
	}
	t.seq++
	return nil
}

// OrderStatus reads a customer's most recent order and its lines.
func (t *txnState) OrderStatus(sess *engine.Session) error {
	cfg := t.cfg
	d := t.r.Intn(cfg.DistrictsPerW)
	c := nonUniform(t.r, 255, cfg.CustomersPerDist-1)
	if t.r.Intn(100) >= 60 {
		last := LastName(nonUniform(t.r, 255, 999))
		tu, _, err := sess.LookupEq("i_customer",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewString(last))
		if err != nil {
			return err
		}
		if len(tu) > 0 {
			c = int(ival(tu[len(tu)/2][2]))
		}
	} else if _, _, err := sess.LookupEq("customer_pkey",
		types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(int64(c))); err != nil {
		return err
	}
	// Latest order through i_orders.
	orders, _, err := sess.LookupEq("i_orders",
		types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(int64(c)))
	if err != nil {
		return err
	}
	if len(orders) == 0 {
		return nil
	}
	latest := orders[0]
	for _, o := range orders[1:] {
		if ival(o[2]) > ival(latest[2]) {
			latest = o
		}
	}
	_, _, err = sess.LookupEq("order_line_pkey",
		types.NewInt(int64(t.w)), types.NewInt(int64(d)), latest[2])
	return err
}

// Delivery processes the oldest undelivered order in every district.
func (t *txnState) Delivery(sess *engine.Session) error {
	cfg := t.cfg
	carrier := types.NewInt(int64(1 + t.r.Intn(10)))
	for d := 0; d < cfg.DistrictsPerW; d++ {
		nos, noRids, err := sess.LookupEq("new_order_pkey",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)))
		if err != nil {
			return err
		}
		if len(nos) == 0 {
			continue
		}
		oldest := 0
		for i := range nos {
			if ival(nos[i][2]) < ival(nos[oldest][2]) {
				oldest = i
			}
		}
		oid := nos[oldest][2]
		if err := sess.DeleteByRID("new_order", noRids[oldest]); err != nil {
			return err
		}
		oT, oR, err := sess.LookupEq("orders_pkey",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), oid)
		if err != nil {
			return err
		}
		if len(oT) != 1 {
			continue
		}
		ord := t.edit(oT[0])
		ord[5] = carrier
		if err := sess.UpdateByRID("orders", oR[0], ord); err != nil {
			return err
		}
		ols, _, err := sess.LookupEq("order_line_pkey",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), oid)
		if err != nil {
			return err
		}
		var total float64
		for _, ol := range ols {
			total += fval(ol[6])
		}
		cT, cRids, err := sess.LookupEq("customer_pkey",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), ord[3])
		if err != nil {
			return err
		}
		if len(cT) == 1 {
			cu := t.edit(cT[0])
			cu[5] = types.NewFloat(fval(cu[5]) + total)
			if err := sess.UpdateByRID("customer", cRids[0], cu); err != nil {
				return err
			}
		}
	}
	t.seq++
	return nil
}

// StockLevel examines the stock of items in the district's last 20 orders.
func (t *txnState) StockLevel(sess *engine.Session) error {
	cfg := t.cfg
	d := t.r.Intn(cfg.DistrictsPerW)
	threshold := int64(10 + t.r.Intn(11))
	dT, _, err := sess.LookupEq("district_pkey", types.NewInt(int64(t.w)), types.NewInt(int64(d)))
	if err != nil {
		return err
	}
	if len(dT) != 1 {
		return nil
	}
	nextO := ival(dT[0][4])
	if t.seen == nil {
		t.seen = map[int64]bool{}
	}
	clear(t.seen)
	low := 0
	for o := nextO - 20; o < nextO; o++ {
		if o < 0 {
			continue
		}
		ols, _, err := sess.LookupEq("order_line_pkey",
			types.NewInt(int64(t.w)), types.NewInt(int64(d)), types.NewInt(o))
		if err != nil {
			return err
		}
		t.items = t.items[:0]
		for _, ol := range ols {
			t.items = append(t.items, ival(ol[4]))
		}
		for _, item := range t.items {
			if t.seen[item] {
				continue
			}
			t.seen[item] = true
			sT, _, err := sess.LookupEq("stock_pkey", types.NewInt(int64(t.w)), types.NewInt(item))
			if err != nil {
				return err
			}
			if len(sT) == 1 && ival(sT[0][2]) < threshold {
				low++
			}
		}
	}
	return nil
}
