package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
}

func TestAdvance(t *testing.T) {
	var c Clock
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if got, want := c.Now(), 5*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativeIgnored(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got, want := c.Now(), time.Second; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestMaxAndSum(t *testing.T) {
	a, b, c := &Clock{}, &Clock{}, &Clock{}
	a.Advance(1 * time.Second)
	b.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := Max(a, b, c); got != 3*time.Second {
		t.Fatalf("Max = %v, want 3s", got)
	}
	if got := Sum(a, b, c); got != 6*time.Second {
		t.Fatalf("Sum = %v, want 6s", got)
	}
	if got := Max(); got != 0 {
		t.Fatalf("Max() = %v, want 0", got)
	}
}

// Property: the clock is monotonic under any sequence of advances.
func TestMonotonicProperty(t *testing.T) {
	f := func(steps []int32) bool {
		var c Clock
		prev := c.Now()
		for _, s := range steps {
			c.Advance(time.Duration(s) * time.Microsecond)
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum equals the sum of the individual clocks and Max is bounded
// by Sum for non-negative advances.
func TestSumMaxProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := &Clock{}, &Clock{}
		x.Advance(time.Duration(a) * time.Millisecond)
		y.Advance(time.Duration(b) * time.Millisecond)
		return Sum(x, y) == x.Now()+y.Now() && Max(x, y) <= Sum(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
