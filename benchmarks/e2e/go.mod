// The benchmark is a module of its own so the root module's build, test
// and coverage gates never see it; it imports the root module's internal
// packages through the replace below (the import path stays under
// dotprov/, which is what Go's internal rule checks).
module dotprov/benchmarks/e2e

go 1.23

require dotprov v0.0.0

replace dotprov => ../..
