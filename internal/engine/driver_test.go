package engine_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dotprov/internal/bufferpool"
	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/pagestore"
	"dotprov/internal/tpcc"
)

var updateDriverGolden = flag.Bool("update", false, "rewrite ../tpcc/testdata/driver.golden from the current implementation")

// driverGoldenPath is the TPC-C driver's golden. It sits with the package
// it pins; the test lives here because the engine's test-only hooks can
// only be reached from the engine's own test binary.
var driverGoldenPath = filepath.Join("..", "tpcc", "testdata", "driver.golden")

// driverGolden runs the TPC-C driver (DefaultConfig, eight workers, 500 ms
// of virtual time each) on Box 2's most expensive class for two seeds and
// renders everything the run may show the rest of the system: transaction
// count, tpmC and CPU time; the exact per-object, per-I/O-type profile;
// the pool's hits and misses; and, after the run, a digest of every
// table's rows in heap order and of every index's (key, RID) entries in
// key order. prepare, when not nil, is applied to each database before
// its run.
func driverGolden(t *testing.T, prepare func(*engine.DB)) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, seed := range []int64{1, 2} {
		box := device.Box2()
		db := engine.New(box, engine.DefaultPoolPages)
		cfg := tpcc.DefaultConfig()
		cfg.Seed = seed
		if err := tpcc.Build(db, cfg); err != nil {
			t.Fatal(err)
		}
		pages := db.TotalPages() / 8
		if pages < 32 {
			pages = 32
		}
		db.ResizePool(pages)
		if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, box.MostExpensive().Class)); err != nil {
			t.Fatal(err)
		}
		if prepare != nil {
			prepare(db)
		}
		driver := &tpcc.Driver{Cfg: cfg, Workers: 8, Period: 500 * time.Millisecond, Seed: seed}
		res, err := driver.Run(db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := db.Pool().Stats()
		fmt.Fprintf(&out, "seed=%d txns=%d tpmC=%g cpu=%d hits=%d misses=%d\n",
			seed, res.TotalTxns, res.TpmC, int64(res.CPUTime), st.Hits, st.Misses)
		ids := make([]int, 0, len(res.Profile))
		for id := range res.Profile {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			v := res.Profile[catalog.ObjectID(id)]
			fmt.Fprintf(&out, "  profile %s: %g,%g,%g,%g\n", db.Cat.Object(catalog.ObjectID(id)).Name,
				v[device.SeqRead], v[device.RandRead], v[device.SeqWrite], v[device.RandWrite])
		}
		for _, o := range db.Cat.Objects() {
			h := sha256.New()
			n := 0
			var rid [6]byte
			entry := func(r pagestore.RID, b []byte) bool {
				rid = [6]byte{byte(r.Page), byte(r.Page >> 8), byte(r.Page >> 16), byte(r.Page >> 24), byte(r.Slot), byte(r.Slot >> 8)}
				h.Write(rid[:])
				h.Write(b)
				h.Write([]byte{0xff})
				n++
				return true
			}
			switch o.Kind {
			case catalog.KindTable:
				if err := db.Heap(o.ID).Scan(db.Pool(), bufferpool.NopCharger{}, entry); err != nil {
					t.Fatal(err)
				}
			case catalog.KindIndex:
				db.Tree(o.ID).Range(db.Pool(), bufferpool.NopCharger{}, nil, nil, true, true, func(k []byte, r pagestore.RID) bool {
					return entry(r, k)
				})
			}
			fmt.Fprintf(&out, "  %s entries=%d sha=%x\n", o.Name, n, h.Sum(nil))
		}
	}
	return out.Bytes()
}

// compareDriverGolden fails t at the first line where got differs from the
// recorded golden.
func compareDriverGolden(t *testing.T, got []byte) {
	t.Helper()
	want, err := os.ReadFile(driverGoldenPath)
	if err != nil {
		t.Fatalf("%v (run TestDriverGolden with -update to record it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("first difference at line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
}

// TestDriverGolden pins what the engine's DML does under TPC-C: the rows
// every table and index holds after two driver runs, the transactions they
// committed, and every page and nanosecond charged on the way. A change to
// how lookups and writes are carried out must leave the file
// byte-identical; a diff means different rows or different charges, not a
// different speed. Regenerate with
// `go test ./internal/engine -run TestDriverGolden -update` only when that
// is intended.
func TestDriverGolden(t *testing.T) {
	got := driverGolden(t, nil)
	if *updateDriverGolden {
		if err := os.MkdirAll(filepath.Dir(driverGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(driverGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareDriverGolden(t, got)
}

// TestBorrowedLookupsSurvivePoisoning reruns the pinned driver with every
// LookupEq result overwritten as soon as the session's next LookupEq
// starts: the run must reproduce driver.golden exactly. It is the test
// that fails when a transaction reads a lookup result after looking up
// again without having copied what it needed (StockLevel's item ids).
func TestBorrowedLookupsSurvivePoisoning(t *testing.T) {
	compareDriverGolden(t, driverGolden(t, engine.PoisonLookups))
}
