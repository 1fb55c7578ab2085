package online

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/pagestore"
)

// serialTally is the collector's contract written out plainly: every
// charge lands at once in the current window's profile and, when its page
// is known, in the object's cumulative extent histogram; Roll closes the
// window into a ring of max; ObserveExtents folds foreign buckets into the
// bucket holding their first page.
type serialTally struct {
	max      int
	extPages int64
	total    int64
	cur      Window
	closed   []Window
	ext      map[catalog.ObjectID][]float64
}

func newSerialTally(max int, extPages int64) *serialTally {
	return &serialTally{
		max:      max,
		extPages: extPages,
		cur:      Window{Profile: iosim.NewProfile()},
		ext:      make(map[catalog.ObjectID][]float64),
	}
}

func (s *serialTally) charge(id catalog.ObjectID, t device.IOType, page, n int64) {
	s.cur.Profile.Add(id, t, float64(n))
	if page >= 0 {
		s.addExtent(id, int(page/s.extPages), float64(n))
	}
}

func (s *serialTally) addExtent(id catalog.ObjectID, b int, n float64) {
	h := s.ext[id]
	for len(h) <= b {
		h = append(h, 0)
	}
	h[b] += n
	s.ext[id] = h
}

func (s *serialTally) observeExtents(id catalog.ObjectID, bucketPages int64, counts []float64) {
	for i, n := range counts {
		if n > 0 {
			s.addExtent(id, int(int64(i)*bucketPages/s.extPages), n)
		}
	}
}

func (s *serialTally) roll(elapsed time.Duration) Window {
	w := s.cur
	w.Elapsed = elapsed
	s.closed = append(s.closed, w)
	if len(s.closed) > s.max {
		s.closed = s.closed[1:]
	}
	s.total++
	s.cur = Window{Profile: iosim.NewProfile()}
	return w.Clone()
}

func (s *serialTally) state() CollectorState {
	st := CollectorState{Total: s.total, ExtPages: s.extPages, Cur: s.cur.Clone(), Extents: make(map[catalog.ObjectID][]float64)}
	for _, w := range s.closed {
		st.Closed = append(st.Closed, w.Clone())
	}
	for id, h := range s.ext {
		st.Extents[id] = append([]float64(nil), h...)
	}
	return st
}

func (s *serialTally) restore(st CollectorState) {
	s.total, s.extPages, s.cur = st.Total, st.ExtPages, st.Cur.Clone()
	s.closed = nil
	for _, w := range st.Closed {
		s.closed = append(s.closed, w.Clone())
	}
	s.ext = make(map[catalog.ObjectID][]float64)
	for id, h := range st.Extents {
		s.ext[id] = append([]float64(nil), h...)
	}
}

// sameBits reports whether two counts are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameWindow compares two windows bit for bit, profiles by value.
func sameWindow(got, want Window) error {
	if got.CPU != want.CPU || got.Elapsed != want.Elapsed || got.Txns != want.Txns {
		return fmt.Errorf("scalars: cpu %v/%v elapsed %v/%v txns %d/%d", got.CPU, want.CPU, got.Elapsed, want.Elapsed, got.Txns, want.Txns)
	}
	if len(got.Profile) != len(want.Profile) {
		return fmt.Errorf("profile covers %d objects, want %d", len(got.Profile), len(want.Profile))
	}
	for id, wv := range want.Profile {
		gv := got.Profile.Get(id)
		for _, t := range device.AllIOTypes {
			if !sameBits(gv[t], wv[t]) {
				return fmt.Errorf("object %d %v: %v, want %v", id, t, gv[t], wv[t])
			}
		}
	}
	return nil
}

// sameHistograms compares cumulative extent histograms bit for bit.
func sameHistograms(got, want map[catalog.ObjectID][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("histograms cover %d objects, want %d", len(got), len(want))
	}
	for id, wh := range want {
		gh := got[id]
		if len(gh) != len(wh) {
			return fmt.Errorf("object %d: %d buckets, want %d", id, len(gh), len(wh))
		}
		for b := range wh {
			if !sameBits(gh[b], wh[b]) {
				return fmt.Errorf("object %d bucket %d: %v, want %v", id, b, gh[b], wh[b])
			}
		}
	}
	return nil
}

// sameState compares a collector's exported state with the tally's.
func sameState(got, want CollectorState) error {
	if got.Total != want.Total || got.ExtPages != want.ExtPages {
		return fmt.Errorf("total %d/%d, extent pages %d/%d", got.Total, want.Total, got.ExtPages, want.ExtPages)
	}
	if err := sameWindow(got.Cur, want.Cur); err != nil {
		return fmt.Errorf("current window: %w", err)
	}
	if len(got.Closed) != len(want.Closed) {
		return fmt.Errorf("%d closed windows, want %d", len(got.Closed), len(want.Closed))
	}
	for i := range want.Closed {
		if err := sameWindow(got.Closed[i], want.Closed[i]); err != nil {
			return fmt.Errorf("closed window %d: %w", i, err)
		}
	}
	return sameHistograms(got.Extents, want.Extents)
}

// sameExtentStats compares ExtentStats with the tally's histograms.
func sameExtentStats(got catalog.ExtentStats, s *serialTally) error {
	if got.PageBytes != pagestore.PageSize {
		return fmt.Errorf("page bytes %d, want %d", got.PageBytes, pagestore.PageSize)
	}
	h := make(map[catalog.ObjectID][]float64, len(got.ByObject))
	for id, exts := range got.ByObject {
		for _, e := range exts {
			if e.Pages != s.extPages {
				return fmt.Errorf("object %d: extent of %d pages, want %d", id, e.Pages, s.extPages)
			}
			h[id] = append(h[id], e.Count)
		}
	}
	return sameHistograms(h, s.ext)
}

// TestCollectorMatchesSerialTally drives one collector through four tapped
// accountants with a seeded script — page-located and page-blind charges,
// CPU and transaction scalars, foreign extent histograms, an extent reset,
// an export and a later restore, three window closes — and holds every
// window, every exported state and every ExtentStats to a serial tally,
// bit for bit. Each accountant's results are read before every collector
// read, the point at which an engine session's charges must be visible.
func TestCollectorMatchesSerialTally(t *testing.T) {
	cat, ids := testCatalog(t)
	objs := []catalog.ObjectID{ids["fact"], ids["fact_pkey"], ids["dim"], ids["dim_pkey"], ids["wal"]}
	layout := catalog.NewUniformLayout(cat, device.HSSD)
	const ring, extPages = 2, 96
	col := NewCollector(ring)
	col.SetExtentPages(extPages)
	want := newSerialTally(ring, extPages)
	accts := make([]*iosim.Accountant, 4)
	for i := range accts {
		a, err := iosim.NewAccountant(device.Box1(), layout, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.SetTap(col)
		accts[i] = a
	}
	rng := rand.New(rand.NewPCG(4471, 37))

	// charge runs ops random charges spread over the accountants, with a
	// CPU or transaction tally mixed in now and then.
	charge := func(ops int) {
		for range ops {
			a := accts[rng.IntN(len(accts))]
			id := objs[rng.IntN(len(objs))]
			tt := device.AllIOTypes[rng.IntN(len(device.AllIOTypes))]
			page, n := rng.Int64N(20000), 1+rng.Int64N(4)
			if rng.IntN(3) == 0 {
				page = -1
			}
			a.ChargePageIO(id, tt, page, n)
			want.charge(id, tt, page, n)
			switch rng.IntN(64) {
			case 0:
				d := time.Duration(1 + rng.Int64N(1e6))
				col.AddCPU(d)
				want.cur.CPU += d
			case 1:
				n := 1 + rng.Int64N(9)
				col.AddTxns(n)
				want.cur.Txns += n
			}
		}
	}
	publish := func() {
		for _, a := range accts {
			_ = a.Profile()
		}
	}
	check := func(step string) {
		t.Helper()
		publish()
		if err := sameState(col.ExportState(), want.state()); err != nil {
			t.Fatalf("%s: exported state: %v", step, err)
		}
		if err := sameExtentStats(col.ExtentStats(), want); err != nil {
			t.Fatalf("%s: extent stats: %v", step, err)
		}
	}
	roll := func(step string, elapsed time.Duration) {
		t.Helper()
		publish()
		if err := sameWindow(col.Roll(elapsed), want.roll(elapsed)); err != nil {
			t.Fatalf("%s: rolled window: %v", step, err)
		}
		check(step)
	}
	observe := func() {
		for range 3 {
			id := objs[rng.IntN(len(objs))]
			bucketPages := []int64{32, 96, 200}[rng.IntN(3)]
			counts := make([]float64, 1+rng.IntN(40))
			for i := range counts {
				counts[i] = float64(rng.IntN(6)) // zeros are skipped
			}
			col.ObserveExtents(id, bucketPages, counts)
			want.observeExtents(id, bucketPages, counts)
		}
	}

	charge(3000)
	check("first window, mid-run")
	observe()
	charge(3000)
	roll("first roll", time.Second)

	charge(2500)
	publish()
	saved := col.ExportState()
	if err := sameState(saved, want.state()); err != nil {
		t.Fatalf("export: %v", err)
	}
	savedTally := want.state()
	charge(2500)
	publish()
	col.ResetExtents()
	want.ext = make(map[catalog.ObjectID][]float64)
	check("after ResetExtents")
	charge(2000)
	observe()
	roll("second roll", 2*time.Second)

	charge(1500)
	publish()
	if err := col.RestoreState(saved); err != nil {
		t.Fatal(err)
	}
	want.restore(savedTally)
	check("after RestoreState")
	charge(4000)
	observe()
	roll("third roll", 3*time.Second)
	if col.Closed() != len(want.closed) || col.Total() != want.total {
		t.Fatalf("ring holds %d of %d windows, want %d of %d", col.Closed(), col.Total(), len(want.closed), want.total)
	}
}
