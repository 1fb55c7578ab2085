// SQL workload example: provision storage for a workload written in plain
// SQL. The schema script creates and seeds the tables (the purchases table
// is bulk-grown programmatically so the placement decision has real bytes
// behind it); the query script is the workload W; DOT recommends the
// layout for a relative SLA of 0.5 on Box 2.
//
//	go run ./examples/sql_workload
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/engine"
	"dotprov/internal/profiler"
	"dotprov/internal/sql"
	"dotprov/internal/types"
	"dotprov/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir := "examples/sql_workload"
	if _, err := os.Stat(filepath.Join(dir, "schema.sql")); err != nil {
		dir = "." // running from inside the example directory
	}
	schemaSrc, err := os.ReadFile(filepath.Join(dir, "schema.sql"))
	if err != nil {
		return err
	}
	querySrc, err := os.ReadFile(filepath.Join(dir, "queries.sql"))
	if err != nil {
		return err
	}

	box := device.Box2()
	db := engine.New(box, 256)
	if _, err := sql.Exec(db, string(schemaSrc)); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	// Grow the purchases table so placement matters (the .sql file seeds
	// only the catalog rows).
	for i := 0; i < 30000; i++ {
		if err := db.Load("purchases", types.Tuple{
			types.NewInt(int64(i)),
			types.NewInt(int64(i%8 + 1)),
			types.NewInt(int64(i%5 + 1)),
			types.NewDate(int64(i % 365)),
		}); err != nil {
			return err
		}
	}
	db.ResizePool(db.PaperPoolPages())
	if err := db.SetLayout(catalog.NewUniformLayout(db.Cat, device.HSSD)); err != nil {
		return err
	}
	if err := db.Analyze(); err != nil {
		return err
	}

	qs, err := sql.ParseWorkload(db, string(querySrc))
	if err != nil {
		return fmt.Errorf("queries: %w", err)
	}
	fmt.Printf("workload: %d SQL queries over %d objects\n", len(qs), len(db.Cat.Objects()))
	w := &workload.DSS{Name: "webshop", Queries: qs}
	ps, err := profiler.ProfileDSSEstimates(db, w)
	if err != nil {
		return err
	}
	in := core.Input{Cat: db.Cat, Box: box, Est: w.Estimator(db), Profiles: ps, Concurrency: 1}
	res, err := core.Optimize(in, core.Options{RelativeSLA: 0.5})
	if err != nil {
		return err
	}
	if !res.Feasible {
		return fmt.Errorf("no feasible layout at SLA 0.5")
	}
	fmt.Printf("recommended layout:\n%s", res.Layout.String(db.Cat))
	fmt.Printf("estimated workload time %v, TOC %.4e cents per run\n",
		res.Metrics.Elapsed.Round(time.Millisecond), res.TOCCents)
	return nil
}
