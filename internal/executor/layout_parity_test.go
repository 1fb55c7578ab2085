package executor_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/tpch"
	"dotprov/internal/types"
)

// rowsDigest names a result by its row count and a digest of its rows'
// encodings in sorted order, so two plans that emit the same rows in
// different orders agree.
func rowsDigest(rows int64, tuples []types.Tuple) string {
	encs := make([][]byte, len(tuples))
	for i, tu := range tuples {
		encs[i] = types.EncodeTuple(nil, tu)
	}
	slices.SortFunc(encs, bytes.Compare)
	h := sha256.New()
	for _, e := range encs {
		h.Write(e)
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("rows=%d sha=%x", rows, h.Sum(nil)[:8])
}

// TestTPCHRowsIndependentOfLayout runs every original and modified TPC-H
// query under each box's three uniform layouts and a seeded set of random
// ones, on both boxes. A layout changes the plan — seq scan or index scan,
// hash join or indexed nested-loop join — but every plan of a query
// rewrites one relational expression, so each must return the same rows.
// At this scale mod-Q5's INLJ probes into the composite lineitem_pkey have
// rows to find, and the test fails unless some mod-Q5 answer is non-empty.
func TestTPCHRowsIndependentOfLayout(t *testing.T) {
	cfg := tpch.Config{ScaleFactor: 0.002, Seed: 1}
	queries := append(tpch.OriginalWorkload(cfg, 42).Queries, tpch.ModifiedWorkload(cfg, 42).Queries...)
	for _, box := range []*device.Box{device.Box1(), device.Box2()} {
		db := engine.New(box, engine.DefaultPoolPages)
		if err := tpch.Build(db, cfg); err != nil {
			t.Fatal(err)
		}
		classes := box.Classes()
		var layouts []catalog.Layout
		for _, cls := range classes {
			layouts = append(layouts, catalog.NewUniformLayout(db.Cat, cls))
		}
		r := rand.New(rand.NewSource(7))
		for range 6 {
			l := catalog.Layout{}
			for _, o := range db.Cat.Objects() {
				l[o.ID] = classes[r.Intn(len(classes))]
			}
			layouts = append(layouts, l)
		}
		want := map[string]string{}
		inlj, nonEmptyQ5 := 0, 0
		for li, l := range layouts {
			if err := db.SetLayout(l); err != nil {
				t.Fatal(err)
			}
			sess, err := db.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				pl, err := db.Plan(q)
				if err != nil {
					t.Fatalf("%s layout %d %s: %v", box.Name, li, q.Name, err)
				}
				if slices.Contains(pl.JoinAlgos(), plan.IndexNLJoin) {
					inlj++
				}
				res, err := sess.RunPlan(pl)
				if err != nil {
					t.Fatalf("%s layout %d %s: %v", box.Name, li, q.Name, err)
				}
				got := rowsDigest(res.Rows, res.Tuples)
				if li == 0 {
					want[q.Name] = got
					if res.Rows > 0 && strings.HasPrefix(q.Name, "mod-Q5#") {
						nonEmptyQ5++
					}
				} else if got != want[q.Name] {
					t.Errorf("%s, layout %d: %s returned %s, want %s (its answer on uniform %v)",
						box.Name, li, q.Name, got, want[q.Name], classes[0])
				}
			}
		}
		if inlj == 0 || nonEmptyQ5 == 0 {
			t.Fatalf("%s: %d plans with an INLJ, %d non-empty mod-Q5 answers; the fixture must exercise both", box.Name, inlj, nonEmptyQ5)
		}
	}
}
