package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// The request path from a wire workload to a search answer is pinned here
// byte for byte: every /v1/advise over DSS and OLTP workloads, object and
// partition granularity, the linear and a discrete cost model, replication
// off and on, on Box 1, Box 2 and the HTAP box; a /v1/provision sweep at
// both granularities; and one defining /v1/observe. Each line holds the
// route, the case, the status and the response body with plan_millis (a
// wall-clock reading) cut out. Requests the server refuses are recorded
// too, so a changed refusal shows as well as a changed answer. Regenerate
// with `go test ./internal/serve -run TestAdviseGolden -update` only when a
// change of answer is intended.

// goldenSpec is a four-object workload whose two large objects declare
// extents (a hot head, a cold tail), so partition granularity has units to
// split. With oltp set it carries test-run numbers and advises against a
// throughput SLA; otherwise it is a DSS workload.
func goldenSpec(oltp bool) WorkloadSpec {
	spec := WorkloadSpec{
		Objects: []ObjectSpec{
			{Name: "orders", SizeBytes: 12e9, Extents: []ExtentSpec{
				{SizeBytes: 1.5e9, Heat: 800},
				{SizeBytes: 10.5e9, Heat: 20},
			}},
			{Name: "orders_pkey", Kind: "index", Table: "orders", SizeBytes: 1.5e9},
			{Name: "lineitem", SizeBytes: 30e9, Extents: []ExtentSpec{
				{SizeBytes: 6e9, Heat: 300},
				{SizeBytes: 24e9, Heat: 60},
			}},
			{Name: "wal", Kind: "log", SizeBytes: 1e9},
		},
		IO: []IOSpec{
			{Object: "orders", SeqRead: 4e5, RandRead: 6e4, SeqWrite: 2e3},
			{Object: "orders_pkey", RandRead: 3e4},
			{Object: "lineitem", SeqRead: 2e6, RandRead: 1e4},
			{Object: "wal", SeqWrite: 5e4},
		},
		CPUMillis: 1500,
	}
	if oltp {
		spec.Concurrency = 4
		spec.Txns = 40000
		spec.ElapsedMillis = 1.8e6
	}
	return spec
}

// planMillis matches the wall-clock field of an advise response.
var planMillis = regexp.MustCompile(`,"plan_millis":[^,}]*`)

// goldenPost sends req to path on h and records the status and the body.
func goldenPost(t *testing.T, g *goldenLines, h http.Handler, path, name string, req any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	out := planMillis.ReplaceAll(bytes.TrimSpace(rec.Body.Bytes()), nil)
	g.add(path, name, fmt.Sprint(rec.Code), string(out))
}

func TestAdviseGolden(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	h := s.Handler()
	var g goldenLines
	for _, oltp := range []bool{false, true} {
		kind := map[bool]string{false: "dss", true: "oltp"}[oltp]
		for _, gran := range []string{"object", "partition"} {
			for _, alpha := range []float64{0, 0.5} {
				for _, rep := range []bool{false, true} {
					for _, box := range []string{"box1", "box2", "htap"} {
						name := fmt.Sprintf("%s/%s/alpha=%g/replication=%v/%s", kind, gran, alpha, rep, box)
						goldenPost(t, &g, h, "/v1/advise", name, AdviseRequest{
							Workload: goldenSpec(oltp), Box: box, SLA: 0.5, Alpha: alpha,
							Granularity: gran, Replication: rep,
						})
					}
				}
			}
		}
	}
	for _, gran := range []string{"object", "partition"} {
		goldenPost(t, &g, h, "/v1/provision", "dss/"+gran, ProvisionRequest{
			Workload: goldenSpec(false), Grid: testGrid(), SLA: 0.5, Granularity: gran,
		})
	}
	goldenPost(t, &g, h, "/v1/observe", "oltp/partition/alpha=0.5/box2", ObserveRequest{
		Stream: "golden", Workload: goldenSpec(true), Box: "box2", SLA: 0.5, Alpha: 0.5,
		Granularity: "partition",
	})
	g.check(t, "advise.golden")
}
