package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
	"dotprov/internal/online"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens (frames, snapshot, advise) from the current implementation")

// The two binary formats of the online plane — observation frames and
// snapshot payloads (with the manager-state record they embed) — are pinned
// here byte for byte and rejection for rejection. The files record, per
// format, the hex of fixed encodings, one line per named rejection with the
// decoder's exact error text, and the error of every proper prefix of one
// encoding (a truncation reaches every read site of a decoder, so the sweep
// pins each site's wording and the context it is wrapped in). The test goes
// through the exported entry points only (online.EncodeFrames,
// DecodeExtentFrames, online.AppendManagerState, online.DecodeManagerState)
// and the payload codec of this package, so it does not follow a move of
// the code behind them. A diff means different bytes on the wire or on
// disk, or a different answer to a malformed input; regenerate with
// `go test ./internal/serve -run 'TestFramesGolden|TestSnapshotGolden'
// -update` only when that is intended.

// goldenLines accumulates one golden file: tab-separated fields, one
// record per line.
type goldenLines struct{ buf bytes.Buffer }

func (g *goldenLines) add(fields ...string) {
	g.buf.WriteString(strings.Join(fields, "\t"))
	g.buf.WriteByte('\n')
}

// reject records decode's refusal of body; an accepted body fails the test.
func (g *goldenLines) reject(t *testing.T, kind, name string, body []byte, decode func([]byte) error) {
	t.Helper()
	err := decode(body)
	if err == nil {
		t.Errorf("%s %q: decoder accepted a malformed input", kind, name)
		return
	}
	g.add("reject", kind, name, err.Error())
}

// prefixes records decode's answer to every proper prefix of enc: its
// refusal, or "accept" where the prefix is itself a whole encoding (a batch
// cut between two frames).
func (g *goldenLines) prefixes(kind string, enc []byte, decode func([]byte) error) {
	for k := 0; k < len(enc); k++ {
		if err := decode(enc[:k]); err != nil {
			g.add("reject", kind+" prefix", fmt.Sprint(k), err.Error())
		} else {
			g.add("accept", kind+" prefix", fmt.Sprint(k))
		}
	}
}

// check compares the accumulated lines with testdata/<name>, naming the
// first line that differs, or rewrites the file under -update.
func (g *goldenLines) check(t *testing.T, name string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, g.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, g.buf.Bytes()) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(g.buf.String(), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, got string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			got = gl[i]
		}
		if w != got {
			t.Fatalf("%s line %d differs:\n got %.300s\nwant %.300s", name, i+1, got, w)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestFramesGolden(t *testing.T) {
	var g goldenLines
	decode := func(b []byte) error { _, err := DecodeExtentFrames(b); return err }

	batches := frameRoundTripCases()
	for _, name := range sortedKeys(batches) {
		enc := online.EncodeFrames(batches[name])
		g.add("frames", name, hex.EncodeToString(enc))
		dec, err := DecodeExtentFrames(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re := online.EncodeFrames(dec); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encode differs", name)
		}
	}

	rejects := frameRejectCases()
	for _, name := range sortedKeys(rejects) {
		g.reject(t, "frames", name, rejects[name], decode)
	}
	// Defects the named table does not reach.
	extentless := online.EncodeFrames([]online.Frame{{Objects: []online.FrameObject{{Index: 0, Extents: []float64{1}}}}})
	g.reject(t, "frames", "buckets without a width", extentless, decode)
	second := online.EncodeFrames([]online.Frame{{Txns: 1}, {Txns: 2}})
	second[len(second)-40] = 7 // the second frame's version byte
	g.reject(t, "frames", "bad version in the second frame", second, decode)
	short := binary.LittleEndian.AppendUint32(nil, 8)
	g.reject(t, "frames", "payload below the fixed prefix", append(short, make([]byte, 8)...), decode)

	padded := append(online.EncodeFrames([]online.Frame{{Txns: 1}}), 0)
	padded[0]++ // the pad byte is inside the declared payload
	g.reject(t, "frames", "payload longer than its objects", padded, decode)

	g.prefixes("frames", online.EncodeFrames(batches["batch of three"]), decode)
	g.check(t, "frames.golden")
}

// goldenState is a fixed manager state touching every part of the record:
// a layout holding lone copies and one two-copy unit, a reference window,
// counters, a partly filled current window, one closed window and two
// extent histograms.
func goldenState() online.ManagerState {
	win := func(cpu time.Duration, txns int64, io map[catalog.ObjectID]iosim.IOVector) online.Window {
		p := iosim.NewProfile()
		for id, v := range io {
			v := v
			p[id] = &v
		}
		return online.Window{Profile: p, CPU: cpu, Elapsed: time.Hour, Txns: txns}
	}
	return online.ManagerState{
		Layout: catalog.SetLayout{
			1: device.Singleton(device.HDD),
			2: device.NewClassSet(device.HDD, device.HSSD),
			5: device.Singleton(device.LSSD),
		},
		HasRef: true,
		Ref:    win(time.Second, 100, map[catalog.ObjectID]iosim.IOVector{1: {10, 20, 0, 0.5}, 2: {0, 300, 0, 0}}),
		Stats:  online.Stats{WindowsClosed: 7, Checks: 5, Drifts: 2, ReAdvises: 1, Fallbacks: 1},
		Collector: online.CollectorState{
			Total:    7,
			ExtPages: 128,
			Cur:      win(time.Millisecond, 3, map[catalog.ObjectID]iosim.IOVector{5: {1, 0, 2, 0}}),
			Closed:   []online.Window{win(2*time.Second, 40, map[catalog.ObjectID]iosim.IOVector{1: {4000, 0, 0, 0}})},
			Extents:  map[catalog.ObjectID][]float64{1: {100, 3.5}, 5: {7}},
		},
	}
}

// goldenPayload is a fixed two-stream snapshot payload: the full state
// above, and a bare replicated stream with no reference.
func goldenPayload() snapshotPayload {
	return snapshotPayload{
		observed: 9, readvised: 2, ingested: 6, shed: 1,
		streams: []streamRecord{
			{name: "htap", objFP: "fp-htap", config: []byte(`{"stream":"htap"}`), state: online.ManagerState{
				Layout: catalog.SetLayout{
					1: device.Singleton(device.LSSD),
					2: device.NewClassSet(device.HDDRAID0, device.LSSD, device.HSSD),
				},
				Collector: online.CollectorState{ExtPages: 64},
			}},
			{name: "orders", objFP: "fp-orders", config: []byte(`{"stream":"orders","sla":0.25}`), state: goldenState()},
		},
	}
}

func TestSnapshotGolden(t *testing.T) {
	var g goldenLines
	putF64 := func(b []byte, off int, v float64) { binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v)) }

	// The manager-state record.
	decodeState := func(b []byte) error { _, err := online.DecodeManagerState(b); return err }
	st := goldenState()
	state := online.AppendManagerState(nil, st)
	g.add("state", hex.EncodeToString(state))
	dec, err := online.DecodeManagerState(state)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, st) || !bytes.Equal(online.AppendManagerState(nil, dec), state) {
		t.Fatalf("state did not round-trip:\n got %+v\nwant %+v", dec, st)
	}
	// Offsets into the record: layout (count + 5 bytes a unit), reference
	// flag, reference window (3 scalars, count, 36 bytes an object), six
	// counters and the extent width, current window, closed windows, extent
	// histograms.
	const (
		offFlag     = 4 + 5*3
		offRef      = offFlag + 1
		offCounters = offRef + 28 + 36*2
		offWidth    = offCounters + 8*6
		offCur      = offWidth + 8
		offClosed   = offCur + 28 + 36
		offExtents  = offClosed + 4 + 28 + 36
	)
	mutate := func(name string, f func(b []byte) []byte) {
		g.reject(t, "state", name, f(bytes.Clone(state)), decodeState)
	}
	// TestDecodeManagerStateRejects' cases, by the same names.
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("trailing byte", func(b []byte) []byte { return append(b, 0) })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("bad class", func(b []byte) []byte { b[8] = 200; return b })
	mutate("singleton as a flagged mask", func(b []byte) []byte { b[8] = 0x80 | 0x01; return b })
	mutate("flagged empty mask", func(b []byte) []byte { b[8] = 0x80; return b })
	mutate("flagged mask with an undefined class", func(b []byte) []byte { b[8] = 0x80 | 0x21; return b })
	mutate("unsorted layout IDs", func(b []byte) []byte { copy(b[4:9], b[9:14]); return b })
	mutate("bad ref flag", func(b []byte) []byte { b[offFlag] = 9; return b })
	mutate("NaN count", func(b []byte) []byte { putF64(b, offRef+28+4, math.NaN()); return b })
	// The decoder's remaining refusals.
	mutate("unflagged unknown class", func(b []byte) []byte { b[8] = 0x30; return b })
	mutate("layout count lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b, 1<<30); return b })
	mutate("negative reference scalar", func(b []byte) []byte { b[offRef+7] = 0x80; return b })
	mutate("reference object count lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offRef+24:], 1<<20); return b })
	mutate("unsorted profile IDs", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offRef+28+36:], 1); return b })
	mutate("negative counter", func(b []byte) []byte { b[offCounters+8*2+7] = 0x80; return b })
	mutate("negative extent width", func(b []byte) []byte { b[offWidth+7] = 0x80; return b })
	mutate("zero extent width", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[offWidth:], 0); return b })
	mutate("infinite count in the current window", func(b []byte) []byte { putF64(b, offCur+28+4+8, math.Inf(1)); return b })
	mutate("closed window count lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offClosed:], 1<<20); return b })
	mutate("negative count in a closed window", func(b []byte) []byte { putF64(b, offClosed+4+28+4, -1); return b })
	mutate("histogram count lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offExtents:], 1<<20); return b })
	mutate("unsorted histogram IDs", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offExtents+4+8+16:], 1); return b })
	mutate("bucket count lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offExtents+8:], 1<<20); return b })
	mutate("negative bucket", func(b []byte) []byte { putF64(b, offExtents+12+8, -3.5); return b })
	g.prefixes("state", state, decodeState)

	// The snapshot payload.
	decodePayload := func(b []byte) error { _, err := decodeSnapshotPayload(b); return err }
	p := goldenPayload()
	payload := appendSnapshotPayload(nil, p)
	g.add("payload", hex.EncodeToString(payload))
	got, err := decodeSnapshotPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.streams) != 2 || !reflect.DeepEqual(got.streams[1].state, st) || !bytes.Equal(appendSnapshotPayload(nil, got), payload) {
		t.Fatalf("payload did not round-trip:\n got %+v\nwant %+v", got, p)
	}
	corrupt := func(name string, f func(b []byte) []byte) {
		g.reject(t, "payload", name, f(bytes.Clone(payload)), decodePayload)
	}
	reencode := func(name string, f func(p *snapshotPayload)) {
		p := goldenPayload()
		f(&p)
		g.reject(t, "payload", name, appendSnapshotPayload(nil, p), decodePayload)
	}
	// TestDecodeSnapshotPayloadRejects' cases, by the same names.
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0) })
	corrupt("negative counter", func(b []byte) []byte { b[7] = 0x80; return b })
	corrupt("stream count lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[32:], 1<<30); return b })
	reencode("unsorted names", func(p *snapshotPayload) { p.streams = append(p.streams, p.streams[1]) })
	reencode("non-json config", func(p *snapshotPayload) { p.streams[0].config = []byte("{not json") })
	// The decoder's remaining refusals.
	corrupt("name length lies", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[36:], 1<<30); return b })
	reencode("descending names", func(p *snapshotPayload) { p.streams[0], p.streams[1] = p.streams[1], p.streams[0] })
	reencode("empty name", func(p *snapshotPayload) { p.streams[0].name = "" })
	reencode("empty fingerprint", func(p *snapshotPayload) { p.streams[1].objFP = "" })
	reencode("bad manager state", func(p *snapshotPayload) { p.streams[1].state.Collector.ExtPages = 0 })
	corrupt("manager state with trailing bytes", func(b []byte) []byte {
		// The last stream's state blob is the record above; pad it by a byte.
		binary.LittleEndian.PutUint32(b[len(b)-len(state)-4:], uint32(len(state)+1))
		return append(b, 0)
	})
	g.prefixes("payload", payload, decodePayload)
	g.check(t, "snapshot.golden")
}
