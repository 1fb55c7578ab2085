package optimizer_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/plan"
	"dotprov/internal/profiler"
	"dotprov/internal/tpch"
	"dotprov/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current implementation")

// goldenLayout is one named layout the golden plans every query under.
type goldenLayout struct {
	name string
	l    catalog.Layout
}

// goldenLayouts returns the layouts of one box: the three uniform ones, the
// DOT answers for the original workload at SLA 0.8 and for the modified one
// at SLA 0.5 (mixed placements the search actually walks to, where access
// paths and join algorithms flip), and one seeded random placement.
func goldenLayouts(t *testing.T, db *engine.DB, box *device.Box, orig, mod *workload.DSS) []goldenLayout {
	t.Helper()
	var out []goldenLayout
	for _, c := range box.Classes() {
		out = append(out, goldenLayout{"all-" + c.String(), catalog.NewUniformLayout(db.Cat, c)})
	}
	for _, dot := range []struct {
		w   *workload.DSS
		sla float64
	}{{orig, 0.8}, {mod, 0.5}} {
		w := dot.w
		ps, err := profiler.ProfileDSSEstimates(db, w)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Input{Cat: db.Cat, Box: box, Est: w.Estimator(db), Profiles: ps, Concurrency: 1}
		res, err := core.Optimize(in, core.Options{RelativeSLA: dot.sla})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("%s/%s: DOT found no feasible layout", box.Name, w.Name)
		}
		out = append(out, goldenLayout{"dot-" + w.Name, res.Layout})
	}
	rng := rand.New(rand.NewSource(1603))
	random := make(catalog.Layout)
	classes := box.Classes()
	for _, o := range db.Cat.Objects() {
		random[o.ID] = classes[rng.Intn(len(classes))]
	}
	return append(out, goldenLayout{"random", random})
}

// TestPlanGolden pins what the planner decides and what it predicts: for
// every instance of the original (66) and the modified (100) TPC-H workload
// at SF 0.001, under six layouts on each of Box 1 and Box 2, the rendered
// plan tree, the join algorithms, and the estimate — rows, I/O time, CPU
// time (floats in %g, the shortest text that reads back to the same bits) —
// and one digest over the tree's text and the per-object I/O profile, which
// spelled out would make the file a megabyte; on a mismatch the test prints
// what the digest covers now. A change of how the planner enumerates or
// costs must leave the file byte-identical; a diff means a different plan
// or a different estimate, not a different speed. Regenerate with `go test
// ./internal/optimizer -run TestPlanGolden -update` only when that is
// intended.
func TestPlanGolden(t *testing.T) {
	cfg := tpch.Config{ScaleFactor: 0.001, Seed: 1}
	var lines, details []string // details[i] is what line i's digest covers
	algos := map[plan.JoinAlgo]int{}
	for _, mkBox := range []func() *device.Box{device.Box1, device.Box2} {
		box := mkBox()
		db := engine.New(box, engine.DefaultPoolPages)
		if err := tpch.Build(db, cfg); err != nil {
			t.Fatal(err)
		}
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
			t.Fatal(err)
		}
		orig, mod := tpch.OriginalWorkload(cfg, 2), tpch.ModifiedWorkload(cfg, 2)
		queries := append(append([]*plan.Query(nil), orig.Queries...), mod.Queries...)
		for _, gl := range goldenLayouts(t, db, box, orig, mod) {
			lines = append(lines, fmt.Sprintf("layout %s/%s %s", box.Name, gl.name, hex.EncodeToString([]byte(gl.l.Key()))))
			details = append(details, "")
			for _, q := range queries {
				pl, err := db.PlanUnder(q, gl.l)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", box.Name, gl.name, q.Name, err)
				}
				var detail bytes.Buffer
				detail.WriteString(pl.Explain())
				ids := make([]int, 0, len(pl.Est.Profile))
				for id := range pl.Est.Profile {
					ids = append(ids, int(id))
				}
				sort.Ints(ids)
				for _, id := range ids {
					v := pl.Est.Profile[catalog.ObjectID(id)]
					fmt.Fprintf(&detail, "  object %d: SR=%g RR=%g SW=%g RW=%g\n", id,
						v[device.SeqRead], v[device.RandRead], v[device.SeqWrite], v[device.RandWrite])
				}
				sum := sha256.Sum256(detail.Bytes())
				var as []string
				for _, a := range pl.JoinAlgos() {
					algos[a]++
					as = append(as, a.String())
				}
				lines = append(lines, fmt.Sprintf("%s plan=%s algos=%s rows=%g io=%d cpu=%d", q.Name, hex.EncodeToString(sum[:8]),
					strings.Join(as, ","), pl.Est.Rows, int64(pl.Est.IOTime), int64(pl.Est.CPUTime)))
				details = append(details, detail.String())
			}
		}
	}
	if algos[plan.HashJoin] == 0 || algos[plan.IndexNLJoin] == 0 {
		t.Fatalf("the layouts should plan both join algorithms, got %v", algos)
	}

	out := []byte(strings.Join(lines, "\n") + "\n")
	path := filepath.Join("testdata", "plans.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(out, want) {
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for i := 0; i < len(lines) && i < len(wantLines); i++ {
			if lines[i] != wantLines[i] {
				t.Fatalf("first difference at line %d:\n got  %s\n want %s\nthe plan digest now covers:\n%s", i+1, lines[i], wantLines[i], details[i])
			}
		}
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(lines))
	}
}
