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
