package iosim

import (
	"time"

	"dotprov/internal/catalog"
	"dotprov/internal/device"
)

// objectIOTime is how TestObjectAndAccountantPricesPinned reaches
// Profile.ObjectIOTime: the pin fixes the values, this seam follows the
// method's signature.
func objectIOTime(p Profile, id catalog.ObjectID, box *device.Box, c device.Class, concurrency int) time.Duration {
	return p.ObjectIOTime(id, box.ServiceTimes(concurrency)[c])
}
