// Package vclock provides a virtual time source for the storage simulator.
//
// The reproduction does not sleep for real I/O latencies; instead every
// simulated device operation advances a virtual clock by the device's
// calibrated service time. Response times, throughput and TOC are read off
// this clock. Each worker (simulated DB connection) owns its own Clock;
// the elapsed time of a concurrent workload is the maximum across workers,
// matching how wall-clock time behaves for real concurrent clients.
package vclock

import "time"

// Clock accumulates virtual time. The zero value is a clock at time zero,
// ready to use.
type Clock struct {
	ns int64
}

// Advance moves the clock forward by d. Negative durations are ignored so
// that rounding noise in derived service times can never move time backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.ns += int64(d)
	}
}

// Now reports the current virtual time as an offset from the clock's origin.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.ns)
}

// Max returns the largest current time among the given clocks. It is the
// elapsed wall-clock equivalent for a set of concurrent workers that all
// started at time zero. Max of no clocks is zero.
func Max(clocks ...*Clock) time.Duration {
	var m time.Duration
	for _, c := range clocks {
		if t := c.Now(); t > m {
			m = t
		}
	}
	return m
}

// Sum returns the total virtual time across clocks. It is the aggregate
// device busy time, useful for utilisation accounting.
func Sum(clocks ...*Clock) time.Duration {
	var s time.Duration
	for _, c := range clocks {
		s += c.Now()
	}
	return s
}
