package main

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/serve"
	"dotprov/internal/workload"
)

// handCase is a three-object advisory problem small enough to price by
// hand. Box 1's classes keep their published Table 1 service times at one
// thread, but their prices are set to round numbers:
//
//	class        SR ms/page  RR ms/page  cents/GB/hour
//	HDD RAID 0   0.049       12.19       0.001
//	L-SSD        0.036        1.759      0.01
//	H-SSD        0.016        0.091      0.1
//
// Objects: table a (10 GB, 100 000 random reads), its index a_pkey (1 GB,
// 100 000 random reads), table b (20 GB, 1 000 000 sequential reads). No
// CPU time, one query, one thread.
func handCase(t *testing.T) (*model, *device.Box, workload.Estimator) {
	t.Helper()
	m, err := buildModel(serve.WorkloadSpec{
		Objects: []serve.ObjectSpec{
			{Name: "a", SizeBytes: 10e9},
			{Name: "a_pkey", Kind: "index", Table: "a", SizeBytes: 1e9},
			{Name: "b", SizeBytes: 20e9},
		},
		IO: []serve.IOSpec{
			{Object: "a", RandRead: 1e5},
			{Object: "a_pkey", RandRead: 1e5},
			{Object: "b", SeqRead: 1e6},
		},
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	box := device.Box1()
	box.Device(device.HDDRAID0).PriceCents = 0.001
	box.Device(device.LSSD).PriceCents = 0.01
	box.Device(device.HSSD).PriceCents = 0.1
	est, err := m.estimator(box)
	if err != nil {
		t.Fatal(err)
	}
	return m, box, est
}

func (m *model) place(t *testing.T, byName map[string]string) catalog.Layout {
	t.Helper()
	l, err := namedLayout(m.cat, byName)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func handPlacement(m *model, box *device.Box, est workload.Estimator, l catalog.Layout) placement {
	return placement{
		est:      est,
		layout:   l,
		perHour:  func(l catalog.Layout) (float64, error) { return l.CostCentsPerHour(m.cat, box) },
		capacity: func(l catalog.Layout) error { return l.CheckCapacity(m.cat, box) },
	}
}

func TestJudgeHandPricedCase(t *testing.T) {
	m, box, est := handCase(t)
	uniform := func(c device.Class) catalog.Layout { return catalog.NewUniformLayout(m.cat, c) }
	rec := m.place(t, map[string]string{"a": "H-SSD", "a_pkey": "H-SSD", "b": "HDD RAID 0"})

	// Recommended layout, by hand:
	//   time  = 1e5*0.091ms + 1e5*0.091ms + 1e6*0.049ms = 9.1 + 9.1 + 49 = 67.2 s
	//   cost  = 11 GB * 0.1 + 20 GB * 0.001 = 1.12 cents/hour
	//   TOC   = 1.12 * 67.2/3600 = 0.020906666... cents per run
	// Everything on H-SSD:
	//   time  = 9.1 + 9.1 + 1e6*0.016ms = 34.2 s
	//   cost  = 31 GB * 0.1 = 3.1 cents/hour
	//   TOC   = 3.1 * 34.2/3600 = 0.02945 cents per run
	// At SLA 0.5 the cap is 34.2/0.5 = 68.4 s: 67.2 s passes. Everything on
	// HDD RAID 0 (2*1219 + 49 s) or on L-SSD (2*175.9 + 36 s) misses it, so
	// only the H-SSD layout competes, and it is dearer.
	const wantTOC, wantBase = 1.12 * 67.2 / 3600, 3.1 * 34.2 / 3600
	met, err := est.Estimate(rec)
	if err != nil {
		t.Fatal(err)
	}
	if met.Elapsed != 67200*time.Millisecond {
		t.Fatalf("estimated elapsed %v, want 67.2s", met.Elapsed)
	}
	toc, err := workload.TOCCents(met, rec, m.cat, box)
	if err != nil {
		t.Fatal(err)
	}
	v, err := handPlacement(m, box, est, rec).judge(box, 0.5, toc, uniform)
	if err != nil {
		t.Fatalf("a correct answer was rejected: %v", err)
	}
	if math.Abs(v.toc-wantTOC) > 1e-12 || math.Abs(v.baseTOC-wantBase) > 1e-12 {
		t.Fatalf("toc %v base %v, want %v and %v", v.toc, v.baseTOC, wantTOC, wantBase)
	}

	reject := func(name, wantErr string, p placement, sla, reported float64) {
		t.Helper()
		if _, err := p.judge(box, sla, reported, uniform); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %v, want one containing %q", name, err, wantErr)
		}
	}
	// A reported TOC one ulp off is not the recomputation.
	reject("toc off by an ulp", "differs from the map-path recomputation", handPlacement(m, box, est, rec), 0.5, math.Nextafter(toc, 1))
	// The same layout at SLA 0.6: the cap drops to 57 s.
	reject("sla", "misses the relative SLA", handPlacement(m, box, est, rec), 0.6, toc)
	// The same layout on a box whose H-SSD holds only 5 GB does not fit.
	small := device.Box1()
	for _, d := range small.Devices {
		d.PriceCents = box.Device(d.Class).PriceCents
	}
	small.Device(device.HSSD).CapacityBytes = 5e9
	smallEst, err := m.estimator(small)
	if err != nil {
		t.Fatal(err)
	}
	reject("capacity", "over capacity", handPlacement(m, small, smallEst, rec), 0.5, toc)

	// Dominance: at SLA 0.01 everything on HDD RAID 0 is feasible and costs
	// 31 GB*0.001 = 0.031 cents/hour * 2487 s = 0.0214 cents — more than
	// the recommendation's 0.0209, so the recommendation stands; but a
	// "recommendation" of everything on H-SSD (0.02945) is beaten by it.
	hssd := uniform(device.HSSD)
	hm, err := est.Estimate(hssd)
	if err != nil {
		t.Fatal(err)
	}
	htoc, err := workload.TOCCents(hm, hssd, m.cat, box)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handPlacement(m, box, est, rec).judge(box, 0.01, toc, uniform); err != nil {
		t.Errorf("recommendation at a slack SLA rejected: %v", err)
	}
	reject("dominated", "exceeds the feasible all-on-HDD RAID 0", handPlacement(m, box, est, hssd), 0.01, htoc)
}

func TestNamedLayoutRequiresEveryUnitOnce(t *testing.T) {
	m, _, _ := handCase(t)
	if _, err := namedLayout(m.cat, map[string]string{"a": "H-SSD", "b": "H-SSD"}); err == nil {
		t.Error("a layout missing a_pkey must be rejected")
	}
	if _, err := namedLayout(m.cat, map[string]string{"a": "H-SSD", "a_pkey": "H-SSD", "c": "H-SSD"}); err == nil {
		t.Error("a layout naming an unknown unit must be rejected")
	}
	if _, err := namedLayout(m.cat, map[string]string{"a": "H-SSD", "a_pkey": "H-SSD", "b": "floppy"}); err == nil {
		t.Error("a layout naming an unknown class must be rejected")
	}
	if _, err := namedSetLayout(m.cat, map[string][]string{"a": {"H-SSD", "H-SSD"}, "a_pkey": {"H-SSD"}, "b": {"HDD RAID 0"}}); err == nil {
		t.Error("a copy list naming a class twice must be rejected")
	}
}

// TestCheckersAgainstLiveHandler sends one generated request of each HTTP
// workload through the real handler: the genuine answer must pass its
// checker, and a tampered one must not.
func TestCheckersAgainstLiveHandler(t *testing.T) {
	srv := serve.New(serverConfig(2, 8))
	defer srv.Close()
	h := srv.Handler()
	for _, wl := range []string{wlAdviseSmall, wlAdvisePartitioned, wlAdviseReplicated, wlProvisionSweep} {
		in, err := genAdvise(wl, 7, 0, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		req, rr := directRequest(http.MethodPost, in.path, "application/json", in.body)
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: handler answered %d: %s", wl, rr.Code, rr.Body.String())
		}
		body := rr.Body.Bytes()
		if _, err := decodeAnswer(in, body); err != nil {
			t.Fatalf("%s: genuine answer failed the per-answer checks: %v", wl, err)
		}
		check := checkAdvise
		if wl == wlProvisionSweep {
			check = checkProvision
		}
		v, err := check(in.body, body)
		if err != nil {
			t.Fatalf("%s: genuine answer failed the independent check: %v", wl, err)
		}
		if !(v.toc > 0 && v.toc <= v.baseTOC) {
			t.Errorf("%s: toc %v, baseline %v", wl, v.toc, v.baseTOC)
		}
		// Tamper: nudge the reported TOC.
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if wl == wlProvisionSweep {
			best := doc["candidates"].([]any)[int(doc["best"].(float64))].(map[string]any)
			best["toc_cents"] = best["toc_cents"].(float64) * 0.999
		} else {
			doc["toc_cents"] = doc["toc_cents"].(float64) * 1.001
		}
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := check(in.body, bad); err == nil {
			t.Errorf("%s: an answer with a falsified TOC passed the independent check", wl)
		}
	}
}
