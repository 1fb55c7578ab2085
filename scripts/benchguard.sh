#!/usr/bin/env bash
# benchguard.sh — compiled-path benchmark regression gate.
#
# Runs the map-vs-compiled microbenchmarks (DOT planning, M^N exhaustive,
# compiled IOTime, memo keys, online re-advise), converts the results to
# JSON (first argument, default bench.json), and asserts
#
#   1. the map (NoCompile: the estimator's map form) and compiled variants
#      of each DOT benchmark (cold, online re-advise, partitioned,
#      replicated) report IDENTICAL est-calls and evaluated metrics: there
#      the compiled form is a mechanical speedup, not a different search, so
#      any count drift is a correctness regression, not noise.
#      BenchmarkExhaustive is the one pair held to an inequality instead:
#      its compiled variant prunes, and must evaluate NO MORE candidates
#      than the unpruned enumeration under NoCompile; and
#   2. the seeded incremental re-advise (BenchmarkReAdvise) evaluates
#      STRICTLY FEWER candidates than the cold re-search of the same
#      drifted profile (BenchmarkReAdviseCold) — the point of online
#      re-advising is that a small drift costs a small search; and
#
#   3. on the Zipf skew fixture, partition-granular DOT
#      (BenchmarkPartitionedDOT) reports a storage cost AT OR BELOW the
#      object-granular optimum (BenchmarkObjectGranularDOT) at the same
#      SLA, per evaluation path — heat-based partitioning must never pay
#      more for the same constraint. The map/compiled count parity of
#      check 1 covers the unit path too: both new benchmarks run as
#      map/compiled pairs; and
#
#   4. the branch-and-bound walk (BenchmarkExhaustiveBnB/bnb) beats the
#      unpruned enumeration under NoCompile of the same 3^12 space STRICTLY
#      — its reason to exist; and
#
#   5. the 500-unit partition-granular advise
#      (BenchmarkPartitionedDOT500/compiled) completes under 100ms per
#      advise — the scale contract of the compiled unit path.
#
#   6. a charge into the online collector allocates nothing:
#      BenchmarkCollectorCharge (one goroutine, page-located charges through
#      an accountant tapped to an online.Collector, every object and extent
#      bucket touched before the timer starts) reports 0 allocs/op. A
#      charge takes the collector mutex and adds into a profile vector and
#      a histogram bucket that already exist; a charge that allocates — a
#      vector or a histogram copied per charge — fails the gate. A count,
#      not a time, so it cannot flake; and
#
#   7. the multi-tenant fleet fold plane (BenchmarkFleetFold) scales with
#      its shard ring: on machines with >= 8 CPUs the one-shard-per-CPU
#      run must ingest >= 4x the frames/s of the single-shard run. Below
#      8 CPUs the scaling headroom is not there to witness, so the gate
#      degrades: >= 1.2x on 2-7 CPUs, and on a single CPU (where both
#      runs are the same configuration) an absolute floor of 5e4 frames/s
#      keeps the fold path itself honest; and
#
#   8. the replicated branch-and-bound walk (BenchmarkReplicatedBnB)
#      prunes for profit: the bounded walk (pruned) runs STRICTLY FASTER
#      than the unpruned enumeration under NoCompile of the same 6^6
#      class-set space. The wide variant (3-class x 12-unit, 6^12 nominal)
#      must also be present: it witnesses that the dominance-collapsed
#      bounded walk covers a space the unpruned enumeration is refused
#      outright; and
#
#   9. the 500-unit partition-granular REPLICATED advise
#      (BenchmarkPartitionedReplicatedDOT/compiled) completes under 250ms
#      per advise — every unit choosing a class set costs at most 2.5x
#      the single-class scale contract of gate 5. The map/compiled count
#      parity of check 1 covers the replicated sweep via the same pair
#      naming.
#
#  10. the executor lends its tuples and decodes only the columns a plan
#      reads, so what a scan-under-aggregate allocates is set by its groups,
#      not its rows: BenchmarkExecutorTPCH/Q1 (60k lineitem rows at SF 0.01)
#      stays under 650,000 B/op — twice the ~322 KB recorded when the
#      borrowed-tuple flow landed (27 MB before it). One allocation per
#      scanned row brought back costs megabytes and fails the gate.
#
#  11. a sweep candidate's cost does not grow with the catalog: on the skew
#      fixture a memo-missing cursor step over 2048 placement units
#      (BenchmarkSweepCandidate/units-2048, ns/candidate, best of three
#      runs) costs under 3x what it costs over 128. Hash, delta estimate, per-class totals and
#      price are O(moves); the copy of the key is the one per-unit cost
#      left, and measures about 2x. One whole-layout walk per candidate — a
#      rehash, a re-totalling — measures 11-14x and fails the gate.
#
#  12. the plan-aware TPC-H estimator plans a query once per placement of
#      the objects it can read, not once per candidate layout. On
#      BenchmarkDSSEstimate the map variant looks every query up for every
#      estimate, so its plans/lookups is the share of (estimate, query)
#      pairs that had to plan: at most 1/2 on the DOT run (measured 2,667 of
#      7,986) and at most 3% on the 6,561-layout exhaustive run (5,211 of
#      216,513; the two six-object joins Q3 and Q18 alone have 3^6
#      signatures per instance, 2% of the lookups). The compiled variant
#      must plan exactly as often — a miss is a miss on either path — with
#      no more lookups (its delta re-looks-up only the queries a move
#      touches). est-calls/evaluated parity of the pair is check 1. These
#      are counts: they repeat exactly, so the gate cannot flake.
#
#  13. a provisioning sweep recycles its candidates' memo storage and scores
#      one move list per class list instead of allocating either per
#      candidate: BenchmarkSweepAllocs (synthetic(16), 32 objects, swept over
#      the 3-class grid at alphas {0, 0.5}, 34 candidate searches on two
#      workers, seven class lists) stays under 650,000 B/op. One iteration
#      reads ~490 KB; scoring the move list per candidate again reads ~790
#      KB, and allocating the memo store per candidate 4.4 MB (every engine
#      opened a 64 KB key arena and a 43 KB entry arena of its own). One
#      iteration includes the first fill of the memo-store pool, about half
#      its figure (20 iterations read ~240 KB/op); the ceiling is set on the
#      one-iteration figure CI runs.
#
#  14. a hash join builds in recycled storage and keys its rows on the value,
#      not on an encoding of it: BenchmarkExecutorTPCH/Q5 (six-way join at SF
#      0.01, measured after one untimed run of the query) stays under
#      600,000 B/op. It reads ~23 KB at 1x and at 20x; a build side
#      allocated per join, with a string allocated per join key, read 6.2 MB.
#
#  15. a TPC-C run allocates only what the database keeps: a LookupEq
#      result lives in its session's reused storage until the next
#      LookupEq, a write encodes its record and keys into the database's,
#      a transaction edits a row in its worker's one scratch tuple, and a
#      B+-tree node is allocated once, at the most it holds.
#      BenchmarkTPCCRun (one driver run — DefaultConfig, Box 2, eight
#      workers, 500 ms — after one untimed run) stays under 2,400,000 B/op,
#      about twice the 1,181,376 it reads at 1x. Cloning every edited row
#      reads ~2,015,000 and re-growing node arrays after every split
#      ~1,350,000, both inside the ceiling; decoding every match into a
#      fresh tuple and encoding every row and key into fresh bytes read
#      11,985,104.
#
# BENCHTIME controls -benchtime (default 1x: CI smoke; use e.g. 20x for a
# recorded snapshot). INGEST_BENCHTIME controls the fleet-fold run, which
# needs a timed benchtime for throughput to mean anything (default 1s).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench.json}"
benchtime="${BENCHTIME:-1x}"
ingest_benchtime="${INGEST_BENCHTIME:-1s}"

raw=$(go test -run '^$' \
  -bench 'BenchmarkDOTOptimize|BenchmarkExhaustive$|BenchmarkExhaustiveBnB|BenchmarkIOTimeCompiledVsMap|BenchmarkMemoKey|BenchmarkReAdvise|BenchmarkObjectGranularDOT|BenchmarkPartitionedDOT|BenchmarkReplicatedBnB|BenchmarkPartitionedReplicatedDOT|BenchmarkExecutorTPCH|BenchmarkDSSEstimate|BenchmarkSweepAllocs|BenchmarkTPCCRun|BenchmarkCollectorCharge' \
  -benchmem -benchtime "$benchtime" .)
# Gate 11 compares two sub-microsecond figures, so it takes the best of three
# runs of each: a noisy neighbour inflates one run, a per-candidate walk of
# the layout inflates all of them.
raw_sweep=$(go test -run '^$' \
  -bench 'BenchmarkSweepCandidate' -benchtime "$benchtime" -count 3 .)
raw_fleet=$(go test -run '^$' \
  -bench 'BenchmarkFleetFold' -benchtime "$ingest_benchtime" ./internal/serve)
raw="$raw
$raw_sweep
$raw_fleet"
echo "$raw"

echo "$raw" | awk -v cpus="$(nproc)" '
/^Benchmark/ {
  # go appends "-GOMAXPROCS" to every name, but only when GOMAXPROCS > 1;
  # strip exactly that suffix so sub-bench names that themselves end in a
  # digit (FleetFold/shards-1) survive on single-CPU machines.
  name=$1
  if (cpus+0 > 1) sub("-" cpus "$", "", name)
  rec = "{\"name\":\"" name "\",\"iterations\":" $2
  for (i=3; i<NF; i++) {
    u=$(i+1)
    if (u=="ns/op" || u=="B/op" || u=="allocs/op" || u=="est-calls" || u=="evaluated" || u=="microcents-storage" || u=="pruned" || u=="units" || u=="frames/s" || u=="B/row" || u=="ns/candidate" || u=="B/candidate" || u=="lookups" || u=="plans") {
      key=u; gsub(/\//, "_per_", key); gsub(/-/, "_", key)
      rec = rec ",\"" key "\":" $i
      i++
    }
  }
  recs[n++] = rec "}"
}
END {
  printf("[\n")
  for (i=0; i<n; i++) printf("  %s%s\n", recs[i], i<n-1 ? "," : "")
  printf("]\n")
}' > "$out"
echo "wrote $out"

echo "$raw" | awk '
/^Benchmark/ {
  name=$1; sub(/-[0-9]+$/, "", name)
  est=""; ev=""
  for (i=3; i<NF; i++) {
    if ($(i+1)=="est-calls") est=$i
    if ($(i+1)=="evaluated") ev=$i
  }
  if (est=="" && ev=="") next
  base=name
  if (name ~ /\/map$/)      { sub(/\/map$/, "", base); estmap[base]=est; evmap[base]=ev }
  if (name ~ /\/compiled$/) { sub(/\/compiled$/, "", base); estcomp[base]=est; evcomp[base]=ev }
}
END {
  bad=0; pairs=0; walks=0
  for (b in estmap) {
    if (!(b in estcomp)) continue
    if (b ~ /^BenchmarkExhaustive\//) {
      # The compiled form prunes the walk: it may skip candidates the
      # unpruned enumeration under NoCompile visits, never visit more.
      walks++
      if (evcomp[b]+0 > evmap[b]+0) { printf("REGRESSION: %s compiled walk evaluated %s, unpruned walk %s\n", b, evcomp[b], evmap[b]); bad=1 }
      continue
    }
    pairs++
    if (estmap[b] != estcomp[b]) { printf("MISMATCH est-calls %s: map=%s compiled=%s\n", b, estmap[b], estcomp[b]); bad=1 }
    if (evmap[b]  != evcomp[b])  { printf("MISMATCH evaluated %s: map=%s compiled=%s\n", b, evmap[b],  evcomp[b]);  bad=1 }
  }
  if (pairs == 0 || walks == 0) { print "benchguard: no map/compiled pairs found — benchmark names changed?"; exit 1 }
  if (bad) exit 1
  printf("benchguard OK: est-calls/evaluated identical across %d map/compiled pairs; compiled exhaustive evaluates no more than map on %d spaces\n", pairs, walks)
}'

echo "$raw" | awk '
/^BenchmarkReAdvise/ {
  name=$1; sub(/-[0-9]+$/, "", name)
  if (name !~ /\/compiled$/) next
  ev=""
  for (i=3; i<NF; i++) if ($(i+1)=="evaluated") ev=$i
  if (ev=="") next
  size=name; sub(/^BenchmarkReAdviseCold\//, "", size); sub(/^BenchmarkReAdvise\//, "", size); sub(/\/compiled$/, "", size)
  if (name ~ /^BenchmarkReAdviseCold\//) cold[size]=ev; else inc[size]=ev
}
END {
  pairs=0; bad=0
  for (s in inc) {
    if (!(s in cold)) continue
    pairs++
    if (inc[s]+0 >= cold[s]+0) { printf("REGRESSION: incremental re-advise %s evaluated %s, cold %s\n", s, inc[s], cold[s]); bad=1 }
  }
  if (pairs == 0) { print "benchguard: no ReAdvise incremental/cold pairs found — benchmark names changed?"; exit 1 }
  if (bad) exit 1
  printf("benchguard OK: incremental re-advise evaluates fewer candidates than cold across %d sizes\n", pairs)
}'

echo "$raw" | awk '
/^BenchmarkObjectGranularDOT\/|^BenchmarkPartitionedDOT\// {
  name=$1; sub(/-[0-9]+$/, "", name)
  cost=""
  for (i=3; i<NF; i++) if ($(i+1)=="microcents-storage") cost=$i
  if (cost=="") next
  path=name; sub(/^Benchmark[A-Za-z]+DOT\//, "", path)
  if (name ~ /^BenchmarkObjectGranularDOT\//) obj[path]=cost; else part[path]=cost
}
END {
  pairs=0; bad=0
  for (p in part) {
    if (!(p in obj)) continue
    pairs++
    if (part[p]+0 > obj[p]+0) { printf("REGRESSION: partitioned storage %s=%s exceeds object-granular %s at equal SLA\n", p, part[p], obj[p]); bad=1 }
  }
  if (pairs == 0) { print "benchguard: no object/partitioned skew pairs found — benchmark names changed?"; exit 1 }
  if (bad) exit 1
  printf("benchguard OK: partitioned storage cost <= object-granular at equal SLA across %d paths\n", pairs)
}'

echo "$raw" | awk '
/^BenchmarkExhaustiveBnB\// {
  name=$1; sub(/-[0-9]+$/, "", name)
  ns=""
  for (i=3; i<NF; i++) if ($(i+1)=="ns/op") ns=$i
  if (ns=="") next
  v=name; sub(/^BenchmarkExhaustiveBnB\//, "", v)
  t[v]=ns
}
END {
  if (!("plain" in t) || !("bnb" in t)) { print "benchguard: BnB benchmark variants missing — benchmark names changed?"; exit 1 }
  if (t["bnb"]+0 >= t["plain"]+0) { printf("REGRESSION: branch-and-bound (%s ns/op) not faster than the unpruned enumeration (%s ns/op)\n", t["bnb"], t["plain"]); exit 1 }
  printf("benchguard OK: branch-and-bound (%s ns/op) beats the unpruned enumeration (%s ns/op)\n", t["bnb"], t["plain"])
}'

# Gate 6: a collector charge allocates nothing in steady state.
echo "$raw" | awk '
/^BenchmarkCollectorCharge/ {
  for (i=3; i<NF; i++) if ($(i+1)=="allocs/op") allocs=$i
}
END {
  if (allocs=="") { print "benchguard: BenchmarkCollectorCharge allocs/op missing — benchmark names changed?"; exit 1 }
  if (allocs+0 != 0) { printf("REGRESSION: a collector charge allocated %s times per op (gate: 0)\n", allocs); exit 1 }
  printf("benchguard OK: a collector charge through a tapped accountant allocates %s times per op (gate: 0)\n", allocs)
}'

echo "$raw" | awk -v cpus="$(nproc)" '
/^BenchmarkFleetFold\// {
  # Sub-bench names contain digits ("shards-4"), so extract the shard
  # count by pattern rather than stripping the GOMAXPROCS suffix (which
  # would eat the "1" of "shards-1" on a single-CPU machine).
  name=$1; sub(/#.*$/, "", name)
  if (match(name, /shards-[0-9]+/) == 0) next
  k=substr(name, RSTART+7, RLENGTH-7)
  fs=""
  for (i=3; i<NF; i++) if ($(i+1)=="frames/s") fs=$i
  if (fs=="") next
  t[k]=fs
  if (k+0 > maxk+0) maxk=k
}
END {
  if (!("1" in t)) { print "benchguard: BenchmarkFleetFold/shards-1 missing — benchmark names changed?"; exit 1 }
  if (maxk+0 <= 1) {
    # Single CPU: both runs are the one-shard configuration; hold the
    # absolute fold-path floor instead of a scaling ratio.
    if (t["1"]+0 < 5e4) { printf("REGRESSION: fleet fold at %.0f frames/s below the 5e4/s single-CPU floor\n", t["1"]+0); exit 1 }
    printf("benchguard OK: fleet fold at %.0f frames/s (%d CPU, scaling gate needs >= 2 CPUs)\n", t["1"]+0, cpus)
    exit 0
  }
  ratio = (t[maxk]+0) / (t["1"]+0)
  if (cpus+0 >= 8) {
    if (ratio < 4) { printf("REGRESSION: %s-shard fleet ingest only %.1fx the single shard (%.0f vs %.0f frames/s) on %d CPUs (gate: 4x)\n", maxk, ratio, t[maxk]+0, t["1"]+0, cpus); exit 1 }
    printf("benchguard OK: %s-shard fleet ingest %.1fx single shard (%.0f vs %.0f frames/s) on %d CPUs\n", maxk, ratio, t[maxk]+0, t["1"]+0, cpus)
  } else {
    if (ratio < 1.2) { printf("REGRESSION: %s-shard fleet ingest only %.1fx the single shard on %d CPUs (floor: 1.2x)\n", maxk, ratio, cpus); exit 1 }
    printf("benchguard OK: %s-shard fleet ingest %.1fx single shard at %.0f frames/s (%d CPUs < 8, the 4x gate needs >= 8 CPUs)\n", maxk, ratio, t[maxk]+0, cpus)
  }
}'

echo "$raw" | awk '
/^BenchmarkPartitionedDOT500\/compiled/ {
  name=$1
  for (i=3; i<NF; i++) if ($(i+1)=="ns/op") ns=$i
  found=1
}
END {
  if (!found) { print "benchguard: BenchmarkPartitionedDOT500/compiled missing — benchmark names changed?"; exit 1 }
  if (ns+0 >= 1e8) { printf("REGRESSION: 500-unit partitioned advise took %s ns/op (budget 1e8)\n", ns); exit 1 }
  printf("benchguard OK: 500-unit partitioned advise at %s ns/op (budget 1e8)\n", ns)
}'

# Gate 8: the replicated bounded walk beats the unpruned enumeration under
# NoCompile strictly, and the wide (12-unit) point — which only the
# dominance-collapsed bounded walk may legally enumerate — is present. Names
# are stripped of exactly the "-GOMAXPROCS" suffix, as the converter does,
# so sub-bench names keep any digits of their own.
echo "$raw" | awk -v cpus="$(nproc)" '
/^BenchmarkReplicatedBnB\// {
  name=$1
  if (cpus+0 > 1) sub("-" cpus "$", "", name)
  ns=""
  for (i=3; i<NF; i++) if ($(i+1)=="ns/op") ns=$i
  if (ns=="") next
  v=name; sub(/^BenchmarkReplicatedBnB\//, "", v)
  t[v]=ns
}
END {
  if (!("plain" in t) || !("pruned" in t)) { print "benchguard: ReplicatedBnB plain/pruned variants missing — benchmark names changed?"; exit 1 }
  if (!("wide" in t)) { print "benchguard: ReplicatedBnB/wide (12-unit) variant missing — benchmark names changed?"; exit 1 }
  if (t["pruned"]+0 >= t["plain"]+0) { printf("REGRESSION: replicated bounded walk (%s ns/op) not faster than the unpruned enumeration (%s ns/op)\n", t["pruned"], t["plain"]); exit 1 }
  printf("benchguard OK: replicated bounded walk (%s ns/op) beats the unpruned enumeration (%s ns/op); wide 12-unit point at %s ns/op\n", t["pruned"], t["plain"], t["wide"])
}'

# Gate 9: the 500-unit replicated partitioned advise stays under 250ms.
echo "$raw" | awk '
/^BenchmarkPartitionedReplicatedDOT\/compiled/ {
  for (i=3; i<NF; i++) if ($(i+1)=="ns/op") ns=$i
  found=1
}
END {
  if (!found) { print "benchguard: BenchmarkPartitionedReplicatedDOT/compiled missing — benchmark names changed?"; exit 1 }
  if (ns+0 >= 2.5e8) { printf("REGRESSION: 500-unit replicated partitioned advise took %s ns/op (budget 2.5e8)\n", ns); exit 1 }
  printf("benchguard OK: 500-unit replicated partitioned advise at %s ns/op (budget 2.5e8)\n", ns)
}'

# Gate 10: a scan under an aggregate allocates for its groups, not its rows.
echo "$raw" | awk '
/^BenchmarkExecutorTPCH\/Q1/ {
  for (i=3; i<NF; i++) if ($(i+1)=="B/op") bytes=$i
  found=1
}
END {
  if (!found) { print "benchguard: BenchmarkExecutorTPCH/Q1 missing — benchmark names changed?"; exit 1 }
  if (bytes+0 >= 650000) { printf("REGRESSION: TPC-H Q1 allocated %s B/op (ceiling 650000): a per-row allocation is back in the executor\n", bytes); exit 1 }
  printf("benchguard OK: TPC-H Q1 at %s B/op (ceiling 650000)\n", bytes)
}'

# Gate 11: a sweep candidate costs O(moves), not O(units). Names are
# stripped of exactly the "-GOMAXPROCS" suffix, as the converter does.
echo "$raw" | awk -v cpus="$(nproc)" '
/^BenchmarkSweepCandidate\/units-/ {
  name=$1
  if (cpus+0 > 1) sub("-" cpus "$", "", name)
  ns=""
  for (i=3; i<NF; i++) if ($(i+1)=="ns/candidate") ns=$i
  if (ns=="") next
  v=name; sub(/^BenchmarkSweepCandidate\/units-/, "", v)
  if (!(v in t) || ns+0 < t[v]+0) t[v]=ns
}
END {
  if (!("128" in t) || !("2048" in t)) { print "benchguard: BenchmarkSweepCandidate/units-128 and units-2048 missing — benchmark names changed?"; exit 1 }
  ratio = (t["2048"]+0) / (t["128"]+0)
  if (ratio >= 3) { printf("REGRESSION: a sweep candidate costs %s ns over 2048 units, %.1fx the %s ns over 128 (gate: 3x): a per-candidate walk of the layout is back\n", t["2048"], ratio, t["128"]); exit 1 }
  printf("benchguard OK: a sweep candidate costs %s ns over 2048 units, %.1fx the %s ns over 128 (gate: 3x for 16x the units)\n", t["2048"], ratio, t["128"])
}'

# Gate 12: the plan-aware estimator plans per placement, not per candidate.
echo "$raw" | awk -v cpus="$(nproc)" '
/^BenchmarkDSSEstimate\// {
  name=$1
  if (cpus+0 > 1) sub("-" cpus "$", "", name)
  v=name; sub(/^BenchmarkDSSEstimate\//, "", v)
  for (i=3; i<NF; i++) {
    if ($(i+1)=="lookups") lookups[v]=$i
    if ($(i+1)=="plans") plans[v]=$i
  }
}
END {
  n=split("dot/map dot/compiled es/map es/compiled", want, " ")
  for (i=1; i<=n; i++) if (!(want[i] in plans) || lookups[want[i]]+0 == 0) { printf("benchguard: BenchmarkDSSEstimate/%s lookups/plans missing — benchmark names changed?\n", want[i]); exit 1 }
  bad=0
  if (plans["dot/map"]*2 > lookups["dot/map"]+0) { printf("REGRESSION: the DOT run planned %s of %s query lookups (gate: 1/2)\n", plans["dot/map"], lookups["dot/map"]); bad=1 }
  if (plans["es/map"]*100 > lookups["es/map"]*3) { printf("REGRESSION: the exhaustive run planned %s of %s query lookups (gate: 3%%)\n", plans["es/map"], lookups["es/map"]); bad=1 }
  split("dot es", runs, " ")
  for (i=1; i<=2; i++) {
    r=runs[i]
    if (plans[r "/compiled"] != plans[r "/map"]) { printf("MISMATCH plans %s: map=%s compiled=%s\n", r, plans[r "/map"], plans[r "/compiled"]); bad=1 }
    if (lookups[r "/compiled"]+0 > lookups[r "/map"]+0) { printf("REGRESSION: compiled %s run made %s lookups, the map run %s\n", r, lookups[r "/compiled"], lookups[r "/map"]); bad=1 }
  }
  if (bad) exit 1
  printf("benchguard OK: plan-aware estimator planned %s of %s lookups on DOT (gate 1/2) and %s of %s on ES (gate 3%%); compiled plans equal, lookups %s and %s\n", plans["dot/map"], lookups["dot/map"], plans["es/map"], lookups["es/map"], lookups["dot/compiled"], lookups["es/compiled"])
}'

# Gate 13: a sweep's candidates share recycled memo storage and move lists.
echo "$raw" | awk '
/^BenchmarkSweepAllocs/ {
  for (i=3; i<NF; i++) if ($(i+1)=="B/op") bytes=$i
  found=1
}
END {
  if (!found) { print "benchguard: BenchmarkSweepAllocs missing — benchmark names changed?"; exit 1 }
  if (bytes+0 >= 650000) { printf("REGRESSION: a 34-candidate provisioning sweep allocated %s B/op (ceiling 650000): the search memo store or the move list is allocated per candidate again\n", bytes); exit 1 }
  printf("benchguard OK: a 34-candidate provisioning sweep at %s B/op (ceiling 650000)\n", bytes)
}'

# Gate 14: a hash join reuses its build storage and allocates no key.
echo "$raw" | awk '
/^BenchmarkExecutorTPCH\/Q5/ {
  for (i=3; i<NF; i++) if ($(i+1)=="B/op") bytes=$i
  found=1
}
END {
  if (!found) { print "benchguard: BenchmarkExecutorTPCH/Q5 missing — benchmark names changed?"; exit 1 }
  if (bytes+0 >= 600000) { printf("REGRESSION: TPC-H Q5 allocated %s B/op (ceiling 600000): hash-join build storage or join keys are allocated per join again\n", bytes); exit 1 }
  printf("benchguard OK: TPC-H Q5 at %s B/op (ceiling 600000)\n", bytes)
}'

# Gate 15: TPC-C's DML allocates what the database keeps, not a tuple per
# match.
echo "$raw" | awk '
/^BenchmarkTPCCRun/ {
  for (i=3; i<NF; i++) if ($(i+1)=="B/op") bytes=$i
  found=1
}
END {
  if (!found) { print "benchguard: BenchmarkTPCCRun missing — benchmark names changed?"; exit 1 }
  if (bytes+0 >= 2400000) { printf("REGRESSION: a TPC-C driver run allocated %s B/op (ceiling 2400000): lookups or writes allocate per row again\n", bytes); exit 1 }
  printf("benchguard OK: a TPC-C driver run at %s B/op (ceiling 2400000)\n", bytes)
}'
