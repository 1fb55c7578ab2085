package online

import (
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/pagestore"
	"dotprov/internal/search"
	"dotprov/internal/workload"
)

// DefaultHeadroomFraction is the share of the SLA headroom a candidate's
// migration may consume when Config.HeadroomFraction is 0: moving data is
// allowed to eat at most half the slack between the candidate's estimated
// elapsed time and what the SLA permits.
const DefaultHeadroomFraction = 0.5

// MigrationPlan prices moving the database from one layout to another:
// every copy a placement unit gains is read sequentially off the unit's
// fastest existing copy and rewritten, page at a time, at its destination
// class's sequential-write rate — the "bytes moved × class write cost" of
// the online objective — while dropping a copy is free (deleting bytes
// moves nothing). A single-copy move is the case of one copy gained and one
// dropped. At partition granularity (a migration model over a partitioning's
// unit catalog) the moves are per-partition: re-advising a drifted hot tail
// prices only the tail's extents, not its whole table.
type MigrationPlan struct {
	// Moves lists the placement units (objects, or partitions at partition
	// granularity) whose copy set changes.
	Moves []workload.ObjectMove
	// Bytes is the total of bytes rewritten: unit size times copies gained,
	// so a decision that only drops copies reports moves with zero bytes.
	Bytes int64
	// Time is the estimated migration time on the virtual clock: per copy
	// gained, pages × (τ(SR, fastest source) + τ(SW, destination)).
	Time time.Duration
}

// migrationModel prices layout transitions against a box. Migration runs
// as a single background stream, so it is priced at the box's service
// times at concurrency 1, resolved once per model. It is a pure reader and
// safe for concurrent use.
type migrationModel struct {
	// cat is the catalog the priced layouts are keyed by — the unit catalog
	// when pricing partition-granular transitions.
	cat     *catalog.Catalog
	svc     [device.NumClasses][device.NumIOTypes]time.Duration
	carried device.ClassSet
}

func newMigrationModel(cat *catalog.Catalog, box *device.Box) migrationModel {
	return migrationModel{cat: cat, svc: box.ServiceTimes(1), carried: box.Carried()}
}

// moveTime prices transitioning one unit of size bytes between copy sets.
// Each copy gained is read sequentially off the fastest existing member (a
// brand-new unit has no source and is charged writes only) and rewritten at
// its destination's sequential-write rate; dropped copies cost nothing.
func (m migrationModel) moveTime(size int64, from, to device.ClassSet) time.Duration {
	added := to &^ from
	if size <= 0 || added == 0 {
		return 0
	}
	pages := (size + pagestore.PageSize - 1) / pagestore.PageSize
	// A member the box does not carry is neither a source nor a
	// destination.
	seqRead := func(c device.Class) time.Duration { return m.svc[c][device.SeqRead] }
	var src time.Duration
	if c, ok := (from & m.carried).Route(device.SeqRead, seqRead).Single(); ok {
		src = seqRead(c)
	}
	var total time.Duration
	for c := range m.svc {
		if (added & m.carried).Has(device.Class(c)) {
			total += time.Duration(pages) * (src + m.svc[c][device.SeqWrite])
		}
	}
	return total
}

// Plan diffs two layouts and prices the transition. Objects absent from
// either layout are ignored (a layout must be total over the catalog for
// the engine to run it; partial inputs here would be a caller bug surfaced
// elsewhere).
func (m migrationModel) Plan(from, to catalog.SetLayout) MigrationPlan {
	var p MigrationPlan
	for _, o := range m.cat.Objects() {
		src, okFrom := from[o.ID]
		dst, okTo := to[o.ID]
		if !okFrom || !okTo || src == dst {
			continue
		}
		p.Moves = append(p.Moves, workload.ObjectMove{Obj: o.ID, From: src, To: dst})
		p.Bytes += o.SizeBytes * int64((dst &^ src).Count())
		p.Time += m.moveTime(o.SizeBytes, src, dst)
	}
	return p
}

// Gate builds the admission hook for the incremental search: a candidate is
// admitted only when the time to materialize its new copies off the seed
// layout fits within frac of the SLA headroom — allowed elapsed (baseline /
// relative SLA) minus the candidate's own estimated elapsed. Candidates
// that copy nothing always pass; when the constraints carry no baseline
// elapsed (nothing to budget against), the gate admits and the SLA check
// alone governs. The diff is a flat byte comparison of the candidate's
// compact layout against the seed's; no maps are materialized per
// candidate.
func (m migrationModel) Gate(seed catalog.SetLayout, frac float64) func(search.Eval, workload.Constraints) bool {
	if frac <= 0 {
		frac = DefaultHeadroomFraction
	}
	sizes := m.cat.DenseSizeBytes()
	// A seed that does not encode never reaches a candidate: the search
	// refuses it before the sweep starts.
	seedCompact, _ := catalog.CompactFromSetLayout(m.cat, seed)
	sb := seedCompact.Bytes()
	return func(ev search.Eval, cons workload.Constraints) bool {
		var mig time.Duration
		cb := ev.Compact.Bytes()
		for i := 0; i < len(cb) && i < len(sb); i++ {
			if sb[i] != cb[i] && i < len(sizes) {
				mig += m.moveTime(sizes[i], device.ClassSet(sb[i]), device.ClassSet(cb[i]))
			}
		}
		if mig == 0 {
			return true
		}
		if cons.Baseline.Elapsed <= 0 || cons.Relative <= 0 {
			return true
		}
		allowed := time.Duration(float64(cons.Baseline.Elapsed) / cons.Relative)
		headroom := allowed - ev.Metrics.Elapsed
		if headroom <= 0 {
			return false
		}
		return float64(mig) <= frac*float64(headroom)
	}
}
