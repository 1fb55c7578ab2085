package main

import (
	"encoding/json"
	"fmt"
	"time"

	"dotprov/internal/online"
	"dotprov/internal/serve"
)

// The seven workload names are the benchmark's contract: BENCHMARK.json,
// the README and later issues cite them.
const (
	wlAdviseSmall       = "advise_small"
	wlAdvisePartitioned = "advise_partitioned"
	wlAdviseReplicated  = "advise_replicated"
	wlProvisionSweep    = "provision_sweep"
	wlFleetOnline       = "fleet_online"
	wlOfflineTPCH       = "offline_tpch"
	wlOfflineTPCC       = "offline_tpcc"
)

// workloadNames lists the workloads in ledger order.
var workloadNames = []string{
	wlAdviseSmall, wlAdvisePartitioned, wlAdviseReplicated, wlProvisionSweep,
	wlFleetOnline, wlOfflineTPCH, wlOfflineTPCC,
}

// prng is a splitmix64 generator. The benchmark carries its own so that a
// (seed, workload, client, operation) tuple names one input forever —
// independent of the Go release's math/rand — and so that seeding one
// stream per operation costs nanoseconds, not a 607-word table fill.
type prng struct{ s uint64 }

// newPRNG derives an independent stream from the run seed and a path of
// stream identifiers (workload, client, operation index, ...).
func newPRNG(seed int64, path ...uint64) *prng {
	p := &prng{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
	for _, v := range path {
		p.s ^= p.u64() + v*0xbf58476d1ce4e5b9
		p.u64()
	}
	return p
}

// u64 returns the next 64 random bits.
func (p *prng) u64() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw from [0, 1).
func (p *prng) float() float64 { return float64(p.u64()>>11) / (1 << 53) }

// between returns a uniform draw from [lo, hi).
func (p *prng) between(lo, hi float64) float64 { return lo + (hi-lo)*p.float() }

// count returns a uniform draw from [lo, hi) rounded to a whole number, the
// shape of an I/O count on the wire.
func (p *prng) count(lo, hi float64) float64 { return float64(int64(p.between(lo, hi))) }

// workloadID gives each workload its own generator stream.
func workloadID(name string) uint64 {
	for i, n := range workloadNames {
		if n == name {
			return uint64(i + 1)
		}
	}
	return 0
}

const (
	gb        = 1e9
	pageBytes = 8192
)

// adviseInput is one generated advise or provision operation: the request
// body and what a correct answer must name.
type adviseInput struct {
	// path is the route the body is posted to.
	path string
	body []byte
	// objects is the number of declared objects; units the number of
	// placement units the answer must report (0 at object granularity,
	// where the answer places the objects themselves).
	objects int
	units   int
	// candidates is the number of sweep candidates a provision answer must
	// carry (0 for advise).
	candidates int
}

// placed is how many layout entries a correct answer carries.
func (in adviseInput) placed() int {
	if in.units > 0 {
		return in.units
	}
	return in.objects
}

// slaCycle is the relative SLA rotation of advise_small.
var slaCycle = []float64{0.5, 0.25, 0.125}

// genAdviseSmall draws one advise_small request: 8 tables and their 8
// indexes, alternating a DSS profile on box1 with an OLTP test-run profile
// on box2, the SLA cycling through slaCycle. Sizes are drawn so the whole
// database fits the box's most expensive class — an object list that does
// not fit answers 200 with feasible=false in a fraction of the time, which
// would make the workload measure the refusal path.
func genAdviseSmall(seed int64, client, op int) serve.AdviseRequest {
	p := newPRNG(seed, workloadID(wlAdviseSmall), uint64(client), uint64(op))
	oltp := (client+op)%2 == 1
	req := serve.AdviseRequest{Box: "box1", SLA: slaCycle[(op/2)%len(slaCycle)]}
	w := &req.Workload
	w.Concurrency = 1
	w.CPUMillis = p.between(50, 500)
	if oltp {
		req.Box = "box2"
		w.Concurrency = 8
		w.CPUMillis = p.between(1e4, 1e5)
		w.Txns = int64(p.between(2e4, 8e4))
		w.ElapsedMillis = 3.6e6
	}
	for t := 0; t < 8; t++ {
		table := fmt.Sprintf("t%d", t)
		index := table + "_pkey"
		size := int64(p.between(0.5*gb, 6*gb))
		w.Objects = append(w.Objects,
			serve.ObjectSpec{Name: table, SizeBytes: size},
			serve.ObjectSpec{Name: index, Kind: "index", Table: table, SizeBytes: int64(float64(size) * p.between(0.05, 0.15))})
		lookups := p.count(0, 5e3)
		if p.float() < 0.4 {
			lookups = p.count(5e4, 5e5)
		}
		tio := serve.IOSpec{Object: table, RandRead: lookups, SeqRead: float64(int64(float64(size/pageBytes) * p.between(0, 3)))}
		if oltp {
			tio.RandWrite = p.count(1e3, 5e4)
			tio.SeqWrite = p.count(1e3, 1e5)
		}
		w.IO = append(w.IO, tio, serve.IOSpec{Object: index, RandRead: float64(int64(lookups * p.between(0.5, 1.5)))})
	}
	return req
}

// heatStep is the heat-density ratio between adjacent declared extents.
// catalog.PartitionOptions{} merges neighbours whose densities are within
// MergeRatio 4 of each other and caps an object at MaxUnitsPerObject 8, so
// the wire only reaches one unit per extent when every step clears 4x:
// 6x with +-10% jitter keeps every adjacent pair between 4.9x and 7.3x.
const heatStep = 6.0

// extentTables appends n tables of 8 declared extents each, plus one
// unsplit index per table, to the spec: 9n placement units at partition
// granularity. Half the tables are hot at the head, half at the tail.
func extentTables(p *prng, w *serve.WorkloadSpec, n int, loGB, hiGB float64) {
	for t := 0; t < n; t++ {
		table := fmt.Sprintf("t%02d", t)
		index := table + "_pkey"
		size := int64(p.between(loGB*gb, hiGB*gb))
		var weights [8]float64
		var sum float64
		for i := range weights {
			weights[i] = p.between(0.5, 1.5)
			sum += weights[i]
		}
		var dens [8]float64
		d := 1.0
		for i := range dens {
			dens[i] = d
			d /= heatStep * p.between(0.9, 1.1)
		}
		if p.float() < 0.5 {
			// Hot tail: the same densities laid out back to front.
			for i, j := 0, len(dens)-1; i < j; i, j = i+1, j-1 {
				dens[i], dens[j] = dens[j], dens[i]
			}
		}
		exts := make([]serve.ExtentSpec, 8)
		var used int64
		for i := range exts {
			sz := int64(float64(size) * weights[i] / sum)
			if i == len(exts)-1 {
				sz = size - used
			}
			used += sz
			exts[i] = serve.ExtentSpec{SizeBytes: sz, Heat: dens[i] * float64(sz)}
		}
		w.Objects = append(w.Objects,
			serve.ObjectSpec{Name: table, SizeBytes: size, Extents: exts},
			serve.ObjectSpec{Name: index, Kind: "index", Table: table, SizeBytes: int64(float64(size) * p.between(0.08, 0.12))})
		w.IO = append(w.IO,
			serve.IOSpec{Object: table, RandRead: p.count(1e4, 2e5), SeqRead: float64(int64(float64(size/pageBytes) * p.between(0.2, 2)))},
			serve.IOSpec{Object: index, RandRead: p.count(1e4, 2e5)})
	}
}

// partitionedTables and replicatedTables size the two partition-granular
// workloads: 60 tables reach 540 placement units, 22 reach 198.
const (
	partitionedTables = 60
	replicatedTables  = 22
)

// genAdvisePartitioned draws one advise_partitioned request: 60 tables of
// 8 extents plus 60 indexes on box2 at SLA 0.25 — 540 placement units.
func genAdvisePartitioned(seed int64, client, op, tables int) serve.AdviseRequest {
	p := newPRNG(seed, workloadID(wlAdvisePartitioned), uint64(client), uint64(op))
	req := serve.AdviseRequest{Box: "box2", SLA: 0.25, Granularity: "partition"}
	req.Workload.Concurrency = 1
	req.Workload.CPUMillis = p.between(1e3, 1e4)
	extentTables(p, &req.Workload, tables, 0.3, 0.9)
	return req
}

// genAdviseReplicated draws one advise_replicated request: 22 tables of 8
// extents plus 22 indexes on the striped-HDD HTAP box, up to two copies
// per unit — 198 placement units through the class-set engine.
func genAdviseReplicated(seed int64, client, op, tables int) serve.AdviseRequest {
	p := newPRNG(seed, workloadID(wlAdviseReplicated), uint64(client), uint64(op))
	req := serve.AdviseRequest{Box: "htap", SLA: 0.5, Granularity: "partition", Replication: true, MaxReplicas: 2}
	req.Workload.Concurrency = 1
	req.Workload.CPUMillis = p.between(1e3, 1e4)
	extentTables(p, &req.Workload, tables, 1, 4)
	return req
}

// sweepGrid is provision_sweep's candidate space: 17 non-empty boxes times
// two cost-model blend points.
func sweepGrid() serve.GridSpec {
	return serve.GridSpec{
		Devices: []serve.GridDeviceSpec{
			{Class: "hdd", Counts: []int{0, 1, 2}},
			{Class: "lssd", Counts: []int{0, 1, 2}},
			{Class: "hssd", Counts: []int{0, 1}},
		},
		Alphas: []float64{0, 0.5},
	}
}

// sweepCandidates is the number of candidates sweepGrid enumerates.
const sweepCandidates = (3*3*2 - 1) * 2

// genProvisionSweep draws one provision_sweep request: 16 tables and 16
// indexes swept over sweepGrid. The SLA and every I/O count are redrawn
// per request, so no two requests share a sweep-LRU key. The SLA is drawn,
// not alternated: two clients alternating in step would always contend
// with a request of their own cost class, a different (cheaper) workload.
func genProvisionSweep(seed int64, client, op int) serve.ProvisionRequest {
	p := newPRNG(seed, workloadID(wlProvisionSweep), uint64(client), uint64(op))
	req := serve.ProvisionRequest{Grid: sweepGrid(), SLA: []float64{0.5, 0.25}[p.u64()%2]}
	w := &req.Workload
	w.Concurrency = 1
	w.CPUMillis = p.between(100, 1e3)
	for t := 0; t < 16; t++ {
		table := fmt.Sprintf("t%02d", t)
		index := table + "_pkey"
		size := int64(p.between(1*gb, 5*gb))
		w.Objects = append(w.Objects,
			serve.ObjectSpec{Name: table, SizeBytes: size},
			serve.ObjectSpec{Name: index, Kind: "index", Table: table, SizeBytes: int64(float64(size) * p.between(0.05, 0.15))})
		lookups := p.count(0, 5e3)
		if p.float() < 0.4 {
			lookups = p.count(5e4, 5e5)
		}
		w.IO = append(w.IO,
			serve.IOSpec{Object: table, RandRead: lookups, SeqRead: float64(int64(float64(size/pageBytes) * p.between(0, 3)))},
			serve.IOSpec{Object: index, RandRead: float64(int64(lookups * p.between(0.5, 1.5)))})
	}
	return req
}

// genAdvise renders the named HTTP workload's operation as a request body
// with the expectations its answer is held to. tables overrides the table
// count of the two partition-granular workloads (quick mode shrinks them).
func genAdvise(workload string, seed int64, client, op, tables int) (adviseInput, error) {
	var (
		in  adviseInput
		req any
	)
	switch workload {
	case wlAdviseSmall:
		r := genAdviseSmall(seed, client, op)
		in, req = adviseInput{path: "/v1/advise", objects: len(r.Workload.Objects)}, r
	case wlAdvisePartitioned:
		r := genAdvisePartitioned(seed, client, op, tables)
		in, req = adviseInput{path: "/v1/advise", objects: len(r.Workload.Objects), units: 9 * tables}, r
	case wlAdviseReplicated:
		r := genAdviseReplicated(seed, client, op, tables)
		in, req = adviseInput{path: "/v1/advise", objects: len(r.Workload.Objects), units: 9 * tables}, r
	case wlProvisionSweep:
		r := genProvisionSweep(seed, client, op)
		in, req = adviseInput{path: "/v1/provision", objects: len(r.Workload.Objects), candidates: sweepCandidates}, r
	default:
		return in, fmt.Errorf("no request generator for workload %q", workload)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return in, err
	}
	in.body = body
	return in, nil
}

// ---- fleet_online ---------------------------------------------------------

// Fleet tenants come in fleetShapes sizes; each tenant has 8 tables, their
// 8 indexes and a log. A tenant alternates between two phases: in phase 0
// tables 0-3 serve point lookups while tables 4-7 are scanned, in phase 1
// the halves swap. On box2 at SLA 0.25 the looked-up half must sit on
// flash and the scanned half may ship to disk, so every phase flip moves
// the optimum — the OLTP-to-HTAP shift of cmd/dotlive, made periodic.
const (
	fleetShapes  = 8
	fleetObjects = 17
	fleetBox     = "box2"
	fleetSLA     = 0.25
)

// fleetTenantName names tenant i.
func fleetTenantName(i int) string { return fmt.Sprintf("tenant-%03d", i) }

// fleetScale is shape k's size and rate multiplier.
func fleetScale(k int) float64 { return 1 + 0.2*float64(k) }

// fleetTableBytes is table t's size for shape k.
func fleetTableBytes(k, t int) int64 { return int64((1 + 0.5*float64(t)) * gb * fleetScale(k)) }

// fleetObjectsSpec is shape k's pinned object list: frame object indexes
// address it by position (table t at 2t, its index at 2t+1, the log last).
func fleetObjectsSpec(k int) []serve.ObjectSpec {
	objs := make([]serve.ObjectSpec, 0, fleetObjects)
	for t := 0; t < 8; t++ {
		table := fmt.Sprintf("t%d", t)
		size := fleetTableBytes(k, t)
		objs = append(objs,
			serve.ObjectSpec{Name: table, SizeBytes: size},
			serve.ObjectSpec{Name: table + "_pkey", Kind: "index", Table: table, SizeBytes: size / 10})
	}
	return append(objs, serve.ObjectSpec{Name: "wal", Kind: "log", SizeBytes: 1 * gb})
}

// fleetWindow is the nominal (jitter-free) observation window of shape k
// in the given phase, as per-object I/O vectors in pinned-list order.
type fleetWindow struct {
	io      [fleetObjects][4]float64
	cpu     time.Duration
	elapsed time.Duration
	txns    int64
}

// fleetPhaseWindow builds shape k's nominal window for a phase.
func fleetPhaseWindow(k, phase int) fleetWindow {
	s := fleetScale(k)
	w := fleetWindow{
		cpu:     time.Duration(100 * s * float64(time.Millisecond)),
		elapsed: time.Hour,
		txns:    int64(50000 * s),
	}
	for t := 0; t < 8; t++ {
		if (t < 4) == (phase == 0) {
			w.io[2*t][1] = 2e5 * s   // point lookups on the table...
			w.io[2*t+1][1] = 2e5 * s // ...through its index
			w.io[2*t][3] = 2e3 * s   // and the row updates that follow
		} else {
			w.io[2*t][0] = float64(fleetTableBytes(k, t) / pageBytes) // one full scan
		}
	}
	w.io[fleetObjects-1][2] = 1e4 * s // log appends
	return w
}

// fleetDefine renders tenant i's defining JSON observe: the object list,
// the stream configuration and its first (phase 0) window.
func fleetDefine(i int) serve.ObserveRequest {
	k := i % fleetShapes
	w := fleetPhaseWindow(k, 0)
	objs := fleetObjectsSpec(k)
	req := serve.ObserveRequest{Stream: fleetTenantName(i), Box: fleetBox, SLA: fleetSLA}
	req.Workload.Objects = objs
	req.Workload.Concurrency = 4
	req.Workload.CPUMillis = float64(w.cpu) / float64(time.Millisecond)
	req.Workload.ElapsedMillis = float64(w.elapsed) / float64(time.Millisecond)
	req.Workload.Txns = w.txns
	for j, o := range objs {
		v := w.io[j]
		req.Workload.IO = append(req.Workload.IO, serve.IOSpec{Object: o.Name, SeqRead: v[0], RandRead: v[1], SeqWrite: v[2], RandWrite: v[3]})
	}
	return req
}

// fleetBatchFrames is the number of frames in one binary observe batch.
const fleetBatchFrames = 16

// fleetJitter is the relative per-count jitter on every frame: large
// enough that no two frames share a fingerprint — so neither the drift
// detector's equal-fingerprint short-circuit nor the fleet re-advise memo
// ever answers for the search — and small enough not to move the optimum.
const fleetJitter = 0.02

// fleetBatch renders one batch of tenant i's frames in the given phase.
// The jitter stream is keyed by (tenant, visit, batch), so a batch's bytes
// do not depend on which client ships it or when.
func fleetBatch(seed int64, tenant, visit, batch, phase int) []online.Frame {
	p := newPRNG(seed, workloadID(wlFleetOnline), uint64(tenant), uint64(visit), uint64(batch))
	nominal := fleetPhaseWindow(tenant%fleetShapes, phase)
	frames := make([]online.Frame, fleetBatchFrames)
	for f := range frames {
		fr := online.Frame{CPU: nominal.cpu, Elapsed: nominal.elapsed, Txns: nominal.txns}
		fr.Objects = make([]online.FrameObject, 0, fleetObjects)
		for j := 0; j < fleetObjects; j++ {
			o := online.FrameObject{Index: uint32(j)}
			any := false
			for t, v := range nominal.io[j] {
				if v > 0 {
					o.IO[t] = float64(int64(v * (1 + fleetJitter*(2*p.float()-1))))
					any = true
				}
			}
			if any {
				fr.Objects = append(fr.Objects, o)
			}
		}
		frames[f] = fr
	}
	return frames
}
