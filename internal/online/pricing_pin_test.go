package online

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/core"
	"dotprov/internal/device"
	"dotprov/internal/iosim"
)

// pinnedDriftAndMigration holds the drift divergences and migration plans
// a Manager computed on each shipped box, at three degrees of concurrency,
// from a single-copy and from a two-copy layout. The values are exact: a
// service time taken from anywhere but the device's own calibration, at any
// concurrency but the configured one (drift) or one (migration), changes a
// line.
const pinnedDriftAndMigration = `Box 1 c=1 single divergence=0x3fe2334758588dd2 drifted=true
Box 1 c=1 single->pairs moves=5 bytes=4400020547 time=30761940000
Box 1 c=1 pairs divergence=0x3fe28d9a3a49ef87 drifted=true
Box 1 c=1 pairs->moved moves=5 bytes=4400020547 time=22192533000
Box 1 c=8 single divergence=0x3fe20e62698bad9a drifted=true
Box 1 c=8 single->pairs moves=5 bytes=4400020547 time=30761940000
Box 1 c=8 pairs divergence=0x3fe2909120d2e5b4 drifted=true
Box 1 c=8 pairs->moved moves=5 bytes=4400020547 time=22192533000
Box 1 c=300 single divergence=0x3fe1990e290312c0 drifted=true
Box 1 c=300 single->pairs moves=5 bytes=4400020547 time=30761940000
Box 1 c=300 pairs divergence=0x3fe29967b4071d48 drifted=true
Box 1 c=300 pairs->moved moves=5 bytes=4400020547 time=22192533000
Box 2 c=1 single divergence=0x3fe389b9b8230440 drifted=true
Box 2 c=1 single->pairs moves=5 bytes=4400020547 time=36010938000
Box 2 c=1 pairs divergence=0x3fe27f4cae5b1afd drifted=true
Box 2 c=1 pairs->moved moves=5 bytes=4400020547 time=15893687000
Box 2 c=8 single divergence=0x3fe37415793a1266 drifted=true
Box 2 c=8 single->pairs moves=5 bytes=4400020547 time=36010938000
Box 2 c=8 pairs divergence=0x3fe27ae1abfa03aa drifted=true
Box 2 c=8 pairs->moved moves=5 bytes=4400020547 time=15893687000
Box 2 c=300 single divergence=0x3fe3444c3153b92a drifted=true
Box 2 c=300 single->pairs moves=5 bytes=4400020547 time=36010938000
Box 2 c=300 pairs divergence=0x3fe2719d7dac2842 drifted=true
Box 2 c=300 pairs->moved moves=5 bytes=4400020547 time=15893687000
HTAP Box c=1 single divergence=0x3fe2307acf0388dd drifted=true
HTAP Box c=1 single->pairs moves=5 bytes=4400020547 time=17090025000
HTAP Box c=1 pairs divergence=0x3fe28eee2f56fd17 drifted=true
HTAP Box c=1 pairs->moved moves=5 bytes=4400020547 time=12866330000
HTAP Box c=8 single divergence=0x3fe20ba977d8e879 drifted=true
HTAP Box c=8 single->pairs moves=5 bytes=4400020547 time=17090025000
HTAP Box c=8 pairs divergence=0x3fe291d73e8c646c drifted=true
HTAP Box c=8 pairs->moved moves=5 bytes=4400020547 time=12866330000
HTAP Box c=300 single divergence=0x3fe196b5e10bc626 drifted=true
HTAP Box c=300 single->pairs moves=5 bytes=4400020547 time=17090025000
HTAP Box c=300 pairs divergence=0x3fe29a866939dbca drifted=true
HTAP Box c=300 pairs->moved moves=5 bytes=4400020547 time=12866330000
`

// TestDriftAndMigrationPricesPinned reaches the detector and the migration
// model only through a Manager: the detector by Check against a restored
// reference and deployed layout, the migration model by an advise whose
// injected search returns the other layout.
func TestDriftAndMigrationPricesPinned(t *testing.T) {
	var got strings.Builder
	for _, box := range []*device.Box{device.Box1(), device.Box2(), device.BoxHTAP()} {
		cat := catalog.New()
		var ids []catalog.ObjectID
		for i, size := range []int64{3e9, 400e6, 1e9 + 10, 8192, 12345} {
			o, err := cat.CreateStandalone(fmt.Sprintf("o%d", i), catalog.KindTable, size)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, o.ID)
		}
		cls := box.Classes()
		// Every unit of moved sits on the one class its pair lacks, so
		// pairs->moved reads each new copy off the pair's faster member.
		single, pairs, moved := catalog.SetLayout{}, catalog.SetLayout{}, catalog.SetLayout{}
		for i, id := range ids {
			single[id] = device.Singleton(cls[i%len(cls)])
			pairs[id] = device.NewClassSet(cls[i%len(cls)], cls[(i+1)%len(cls)])
			moved[id] = device.Singleton(cls[(i+2)%len(cls)])
		}
		ref := Window{Profile: iosim.NewProfile(), Elapsed: time.Hour}
		obs := Window{Profile: iosim.NewProfile(), Elapsed: 90 * time.Minute}
		for i, id := range ids {
			for _, typ := range device.AllIOTypes {
				ref.Profile.Add(id, typ, float64(1000*(i+1)+300*int(typ)))
				obs.Profile.Add(id, typ, float64(700*(len(ids)-i)+450*int(typ)+1))
			}
		}
		for _, conc := range []int{1, 8, 300} {
			for _, lay := range []struct {
				name, other string
				from, to    catalog.SetLayout
			}{{"single", "pairs", single, pairs}, {"pairs", "moved", pairs, moved}} {
				m, err := NewManager(Config{Cat: cat, Box: box, Concurrency: conc, SLA: 0.5,
					Replication: core.ReplicationConfig{Enabled: true, MaxReplicas: 2}})
				if err != nil {
					t.Fatal(err)
				}
				st := m.ExportState()
				st.Layout, st.HasRef, st.Ref = lay.from.Clone(), true, ref.Clone()
				if err := m.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				m.Observe(obs.Clone())
				dr, _, err := m.Check()
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%s c=%d %s divergence=%#x drifted=%v\n",
					box.Name, conc, lay.name, math.Float64bits(dr.Divergence), dr.Drifted)
				to := lay.to
				dec, err := m.AdviseWith(func(core.Input, core.Options) (*core.Result, error) {
					return &core.Result{SetLayout: to.Clone(), Feasible: true}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				p := dec.Migration
				fmt.Fprintf(&got, "%s c=%d %s->%s moves=%d bytes=%d time=%d\n",
					box.Name, conc, lay.name, lay.other, len(p.Moves), p.Bytes, int64(p.Time))
			}
		}
	}
	if got.String() != pinnedDriftAndMigration {
		t.Fatalf("drift and migration prices moved:\n got:\n%s\nwant:\n%s", got.String(), pinnedDriftAndMigration)
	}
}
