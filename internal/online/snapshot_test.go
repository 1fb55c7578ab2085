package online

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/faultinject"
)

// snapState builds a representative manager state: a mixed layout, a
// reference window, non-zero counters, ring windows and extent
// histograms.
func snapState(ids map[string]catalog.ObjectID) ManagerState {
	l := catalog.SingletonSetLayout(catalog.Layout{
		ids["fact"]:      device.HDD,
		ids["fact_pkey"]: device.LSSD,
		ids["dim"]:       device.HSSD,
		ids["dim_pkey"]:  device.HSSD,
		ids["wal"]:       device.HDDRAID0,
	})
	ref := oltpWindow(ids)
	return ManagerState{
		Layout: l,
		HasRef: true,
		Ref:    ref,
		Stats:  Stats{WindowsClosed: 7, Checks: 5, Drifts: 2, ReAdvises: 1, Fallbacks: 1},
		Collector: CollectorState{
			Total:    7,
			ExtPages: 128,
			Cur:      Window{Profile: oltpWindow(ids).Profile, CPU: time.Millisecond},
			Closed:   []Window{oltpWindow(ids), dssWindow(ids)},
			Extents: map[catalog.ObjectID][]float64{
				ids["fact"]: {100, 0, 3.5, 42},
				ids["dim"]:  {7},
			},
		},
	}
}

func TestManagerStateCodecRoundTrip(t *testing.T) {
	_, ids := testCatalog(t)
	st := snapState(ids)
	enc := AppendManagerState(nil, st)
	dec, err := DecodeManagerState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, dec) {
		t.Fatalf("decode(encode(st)) != st:\n got %+v\nwant %+v", dec, st)
	}
	re := AppendManagerState(nil, dec)
	if !bytes.Equal(enc, re) {
		t.Fatal("encode(decode(b)) != b: the codec is not canonical")
	}
	// A single-copy deployment's record is byte-for-byte the record written
	// before layouts were class sets (one class byte per unit), so existing
	// snapshots restore and crash recovery stays bit-identical.
	if sum := sha256.Sum256(enc); len(enc) != 982 || hex.EncodeToString(sum[:]) != "b1516f769b25d343a90cdca37ccdd30b48858e98b162cf1186ff49bc5f11daee" {
		t.Fatalf("single-copy state record changed: %d bytes, sha256 %x", len(enc), sum)
	}

	// Multi-copy sets round-trip through the flagged-mask byte, canonically.
	st.Layout[ids["fact"]] = device.NewClassSet(device.HDD, device.HSSD)
	st.Layout[ids["wal"]] = device.NewClassSet(device.HDDRAID0, device.LSSD, device.HSSD)
	enc = AppendManagerState(nil, st)
	if dec, err = DecodeManagerState(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, dec) || !bytes.Equal(enc, AppendManagerState(nil, dec)) {
		t.Fatalf("replicated state did not round-trip:\n got %+v\nwant %+v", dec.Layout, st.Layout)
	}

	// A state with no reference and empty collector round-trips too.
	empty := ManagerState{
		Layout:    catalog.SetLayout{ids["fact"]: device.Singleton(device.HDD)},
		Collector: CollectorState{ExtPages: DefaultExtentPages, Cur: Window{}, Extents: map[catalog.ObjectID][]float64{}},
	}
	dec2, err := DecodeManagerState(AppendManagerState(nil, empty))
	if err != nil {
		t.Fatal(err)
	}
	if dec2.HasRef || len(dec2.Collector.Closed) != 0 {
		t.Fatalf("empty state decoded to %+v", dec2)
	}
}

func TestDecodeManagerStateRejects(t *testing.T) {
	_, ids := testCatalog(t)
	good := AppendManagerState(nil, snapState(ids))
	if _, err := DecodeManagerState(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, err := DecodeManagerState(b); err == nil {
			t.Errorf("%s: decoder accepted corrupted state", name)
		}
	}
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("trailing byte", func(b []byte) []byte { return append(b, 0) })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("bad class", func(b []byte) []byte { b[8] = 200; return b })
	// Every copy set has one encoding: a lone copy is its class byte, never
	// a flagged one-bit mask; flagged masks must be valid multi-copy sets.
	mutate("singleton as a flagged mask", func(b []byte) []byte { b[8] = 0x80 | 0x01; return b })
	mutate("flagged empty mask", func(b []byte) []byte { b[8] = 0x80; return b })
	mutate("flagged mask with an undefined class", func(b []byte) []byte { b[8] = 0x80 | 0x21; return b })
	mutate("unsorted layout IDs", func(b []byte) []byte {
		// Swap the first two (id, class) layout entries.
		copy(b[4:9], []byte{b[9], b[10], b[11], b[12], b[13]})
		return b
	})
	mutate("bad ref flag", func(b []byte) []byte {
		off := 4 + 5*len(ids) // layout header + entries
		b[off] = 9
		return b
	})
	mutate("NaN count", func(b []byte) []byte {
		// The reference window's first profiled count sits after the flag
		// and the three window scalars and the object count and ID.
		off := 4 + 5*len(ids) + 1 + 24 + 4 + 4
		nan := math.Float64bits(math.NaN())
		for i := 0; i < 8; i++ {
			b[off+i] = byte(nan >> (8 * i))
		}
		return b
	})
}

// TestManagerExportRestoreResumesDrift is the recovery contract: a fresh
// manager restored from an exported state advises bit-identically to the
// original — same drift verdict, same adopted layout.
func TestManagerExportRestoreResumesDrift(t *testing.T) {
	cat, ids := testCatalog(t)
	cfg := Config{Cat: cat, Box: device.Box1(), SLA: 0.25, DriftThreshold: 0.2}
	orig, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig.Observe(oltpWindow(ids))
	if _, err := orig.Advise(); err != nil {
		t.Fatal(err)
	}
	st := orig.ExportState()

	restored, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !restored.ExportState().HasRef {
		t.Fatal("restored manager lost its reference profile")
	}
	if !restored.CurrentSetLayout().Equal(orig.CurrentSetLayout()) {
		t.Fatal("restored deployed layout differs")
	}
	if got, want := restored.Stats(), orig.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}

	// Drift both with the same shifted window: decisions must agree bit
	// for bit (the determinism contract carried across the restart).
	orig.Observe(dssWindow(ids))
	restored.Observe(dssWindow(ids))
	do, err := orig.ReAdvise(false)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := restored.ReAdvise(false)
	if err != nil {
		t.Fatal(err)
	}
	if do.Drift.Drifted != dr.Drift.Drifted || do.Drift.Divergence != dr.Drift.Divergence {
		t.Fatalf("drift verdicts diverged: %+v vs %+v", do.Drift, dr.Drift)
	}
	if !do.Drift.Drifted {
		t.Fatal("fixture did not drift; the test is vacuous")
	}
	if do.ReAdvised != dr.ReAdvised || (do.SetTo == nil) != (dr.SetTo == nil) {
		t.Fatalf("re-advise outcomes diverged: %+v vs %+v", do, dr)
	}
	if do.SetTo != nil && !do.SetTo.Equal(dr.SetTo) {
		t.Fatalf("adopted layouts diverged:\n got %v\nwant %v", dr.SetTo, do.SetTo)
	}
}

func TestRestoreRejectsForeignState(t *testing.T) {
	cat, ids := testCatalog(t)
	mgr, err := NewManager(Config{Cat: cat, Box: device.Box1(), SLA: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	base := snapState(ids)

	missing := base
	missing.Layout = missing.Layout.Clone()
	delete(missing.Layout, ids["wal"])
	if err := mgr.RestoreState(missing); err == nil {
		t.Error("accepted a layout not covering the catalog")
	}

	alien := base
	alien.Ref = alien.Ref.Clone()
	alien.Ref.Profile.Add(9999, device.SeqRead, 1)
	if err := mgr.RestoreState(alien); err == nil {
		t.Error("accepted a reference window profiling an unknown object")
	}

	badExt := base
	badExt.Collector.Extents = map[catalog.ObjectID][]float64{9999: {1}}
	if err := mgr.RestoreState(badExt); err == nil {
		t.Error("accepted extent histograms for an unknown object")
	}

	badStats := base
	badStats.Stats.Checks = -1
	if err := mgr.RestoreState(badStats); err == nil {
		t.Error("accepted negative counters")
	}

	offBox := base
	offBox.Layout = catalog.NewUniformSetLayout(cat, device.Singleton(device.LSSDRAID0))
	if device.Box1().Device(device.LSSDRAID0) != nil {
		t.Fatal("fixture assumption broken: Box1 provisions lssd-raid0")
	}
	if err := mgr.RestoreState(offBox); err == nil {
		t.Error("accepted a layout on a class the box does not provision")
	}
}

func TestSnapshotStoreWriteLoadFallback(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(func(uint64, []byte) error { return nil }); err != ErrNoSnapshot {
		t.Fatalf("empty dir Load error = %v, want ErrNoSnapshot", err)
	}
	g1, err := store.Write([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := store.Write([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if g2 <= g1 {
		t.Fatalf("generations not increasing: %d then %d", g1, g2)
	}
	load := func() (uint64, string, error) {
		var got string
		gen, err := store.Load(func(_ uint64, p []byte) error { got = string(p); return nil })
		return gen, got, err
	}
	if gen, got, err := load(); err != nil || gen != g2 || got != "two" {
		t.Fatalf("Load = %d %q %v, want newest generation %d", gen, got, err, g2)
	}

	// Tear the newest file: Load must fall back to the previous
	// generation.
	newest := filepath.Join(dir, store.snapFile(g2))
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if gen, got, err := load(); err != nil || gen != g1 || got != "one" {
		t.Fatalf("after tear, Load = %d %q %v, want fallback to %d", gen, got, err, g1)
	}

	// Corrupt one payload byte of the survivor: the checksum must catch
	// it, and with no generation left Load reports the failures.
	oldest := filepath.Join(dir, store.snapFile(g1))
	b, err = os.ReadFile(oldest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-sha256Size-1] ^= 0xff
	if err := os.WriteFile(oldest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := load(); err == nil {
		t.Fatal("Load accepted a snapshot with a flipped payload byte")
	}
}

// sha256Size avoids importing crypto/sha256 just for the constant.
const sha256Size = 32

func TestSnapshotStorePrune(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := store.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := store.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("retained %d generations, want 2 (keep bound)", len(gens))
	}

	// Reopening resumes numbering after the newest retained generation.
	re, err := OpenStore(dir, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := re.Write([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if g <= gens[len(gens)-1] {
		t.Fatalf("reopened store reused generation %d (newest on disk %d)", g, gens[len(gens)-1])
	}
}

// TestSnapshotStoreFaulty: injected write faults fail the write cleanly —
// no final file appears, prior generations survive, and once the plan
// stops injecting, writes succeed with fresh generation numbers.
func TestSnapshotStoreFaulty(t *testing.T) {
	dir := t.TempDir()
	good, err := OpenStore(dir, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := good.Write([]byte("stable"))
	if err != nil {
		t.Fatal(err)
	}

	faulty := faultinject.Wrap(faultinject.OS, &faultinject.Plan{Seed: 11, ShortWrite: 1})
	fstore, err := OpenStore(dir, faulty, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fstore.Write([]byte("doomed")); err == nil {
		t.Fatal("short-write plan did not fail the write")
	}
	if faulty.Stats().ShortWrites == 0 {
		t.Fatal("no short write recorded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if gen, ok := parseGen(e.Name()); ok && gen != g1 {
			t.Fatalf("failed write left generation file %s", e.Name())
		}
	}
	gen, err := good.Load(func(_ uint64, p []byte) error {
		if string(p) != "stable" {
			t.Fatalf("payload %q", p)
		}
		return nil
	})
	if err != nil || gen != g1 {
		t.Fatalf("prior generation lost after injected failure: %d %v", gen, err)
	}

	// Rename failure: the sealed temp never reaches its final name.
	renameFaulty := faultinject.Wrap(faultinject.OS, &faultinject.Plan{Seed: 11, RenameFail: 1})
	rstore, err := OpenStore(dir, renameFaulty, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rstore.Write([]byte("doomed too")); err == nil {
		t.Fatal("rename plan did not fail the write")
	}

	// The same store recovers when the plan stops firing (fresh wrapper,
	// no faults): the burned generations are skipped, never reused.
	g2, err := good.Write([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if g2 <= g1 {
		t.Fatalf("generation went backwards: %d after %d", g2, g1)
	}
}
