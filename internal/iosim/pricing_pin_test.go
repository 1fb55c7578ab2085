package iosim

import (
	"fmt"
	"strings"
	"testing"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

// pinnedObjectAndAccountant holds, for each shipped box at three degrees
// of concurrency, every object's I/O time on every class the box carries
// and an accountant's clock after a fixed run of mixed charges. The values
// are exact: a service time taken from anywhere but the device's own
// calibration at the given concurrency changes a line.
const pinnedObjectAndAccountant = `Box 1 c=1 HDD RAID 0 objects 1674590000 6529896000 4780378000 6689201000
Box 1 c=1 L-SSD objects 244172750 17529517250 25555643500 975341750
Box 1 c=1 H-SSD objects 13727250 284308750 392383500 54827250
Box 1 c=1 accountant clock=761886872 io=761877000
Box 1 c=8 HDD RAID 0 objects 1201486816 4807648572 3622993506 4799367253
Box 1 c=8 L-SSD objects 245702972 15042036295 21919579575 981366668
Box 1 c=8 H-SSD objects 11176681 283119477 403040598 44634547
Box 1 c=8 accountant clock=615144234 io=615134362
Box 1 c=300 HDD RAID 0 objects 376897000 1805877500 1605744500 1505503000
Box 1 c=300 L-SSD objects 248370500 10706508500 15582142000 991869500
Box 1 c=300 H-SSD objects 6731500 281047500 421616000 26870500
Box 1 c=300 accountant clock=359380872 io=359371000
Box 2 c=1 HDD objects 1829820000 6461450500 4213792500 7309272000
Box 2 c=1 L-SSD RAID 0 objects 217270000 6244541500 8718375500 867883000
Box 2 c=1 H-SSD objects 13727250 284308750 392383500 54827250
Box 2 c=1 accountant clock=481242872 io=481233000
Box 2 c=8 HDD objects 1610157403 5827073082 3928997908 6431814589
Box 2 c=8 L-SSD RAID 0 objects 183500847 5828181144 8216237358 732972090
Box 2 c=8 H-SSD objects 11176681 283119477 403040598 44634547
Box 2 c=8 accountant clock=437261174 io=437251302
Box 2 c=300 HDD objects 1227299250 4721392750 3432619500 4902461250
Box 2 c=300 L-SSD RAID 0 objects 124643500 5102491000 7341042500 497831500
Box 2 c=300 H-SSD objects 6731500 281047500 421616000 26870500
Box 2 c=300 accountant clock=360603872 io=360594000
HTAP Box c=1 HDD objects 1717000000 6316288000 4332422000 6858610000
HTAP Box c=1 L-SSD objects 244172750 17529517250 25555643500 975341750
HTAP Box c=1 H-SSD objects 13727250 284308750 392383500 54827250
HTAP Box c=1 accountant clock=757174872 io=757165000
HTAP Box c=8 HDD objects 1242645646 4636924225 3242146409 4963779229
HTAP Box c=8 L-SSD objects 245702972 15042036295 21919579575 981366668
HTAP Box c=8 H-SSD objects 11176681 283119477 403040598 44634547
HTAP Box c=8 accountant clock=611702415 io=611692543
HTAP Box c=300 HDD objects 415875000 1709896000 1341864000 1661205000
HTAP Box c=300 L-SSD objects 248370500 10706508500 15582142000 991869500
HTAP Box c=300 H-SSD objects 6731500 281047500 421616000 26870500
HTAP Box c=300 accountant clock=358152872 io=358143000
`

// TestObjectAndAccountantPricesPinned prices a profile object by object
// and replays charges through an Accountant on each shipped box.
func TestObjectAndAccountantPricesPinned(t *testing.T) {
	ids := []catalog.ObjectID{1, 2, 3, 4}
	p := NewProfile()
	for i, id := range ids {
		for _, typ := range device.AllIOTypes {
			if (i+int(typ))%3 != 0 { // leave some types untouched
				p.Add(id, typ, float64(137*(i+1))+0.25*float64(typ))
			}
		}
	}
	var got strings.Builder
	for _, box := range []*device.Box{device.Box1(), device.Box2(), device.BoxHTAP()} {
		cls := box.Classes()
		for _, conc := range []int{1, 8, 300} {
			for _, c := range cls {
				fmt.Fprintf(&got, "%s c=%d %v objects", box.Name, conc, c)
				for _, id := range ids {
					fmt.Fprintf(&got, " %d", int64(objectIOTime(p, id, box, c, conc)))
				}
				got.WriteByte('\n')
			}
			layout := catalog.Layout{}
			for i, id := range ids {
				layout[id] = cls[i%len(cls)]
			}
			a, err := NewAccountant(box, layout, conc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 40; k++ {
				a.ChargePageIO(ids[k%len(ids)], device.AllIOTypes[(k/len(ids))%device.NumIOTypes], int64(k)-1, int64(k%7))
				if k%5 == 0 {
					a.ChargeCPU(1234)
				}
			}
			fmt.Fprintf(&got, "%s c=%d accountant clock=%d io=%d\n", box.Name, conc, int64(a.Now()), int64(a.IOTime()))
		}
	}
	if got.String() != pinnedObjectAndAccountant {
		t.Fatalf("object and accountant prices moved:\n got:\n%s\nwant:\n%s", got.String(), pinnedObjectAndAccountant)
	}
}
