package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestHorizonStopsRun(t *testing.T) {
	s := New()
	fired := false
	s.At(100, func() { fired = true })
	end := s.Run(50)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 50 {
		t.Fatalf("Run returned %v, want 50", end)
	}
	s.Run(200)
	if !fired {
		t.Fatal("event not fired after horizon extended")
	}
}

// TestRunHorizonBeforeNow: a Run whose horizon lies before now fires
// nothing and leaves the clock where it is, so an event left at the current
// instant by a Stop still fires at that instant.
func TestRunHorizonBeforeNow(t *testing.T) {
	s := New()
	var fired []Time
	record := func() { fired = append(fired, s.Now()) }
	s.At(100, record)
	s.At(200, record)
	if end := s.Run(150); end != 150 {
		t.Fatalf("Run(150) = %v, want 150", end)
	}
	if end := s.Run(120); end != 150 || s.Now() != 150 || s.Pending() != 1 {
		t.Fatalf("Run(120) after Run(150) = %v, Now() %v, Pending() %d; want 150, 150, 1",
			end, s.Now(), s.Pending())
	}
	s.At(300, func() {
		s.After(0, record)
		s.Stop()
	})
	if end := s.Run(400); end != 300 {
		t.Fatalf("Run(400) stopped at %v, want 300", end)
	}
	if end := s.Run(250); end != 300 || s.Pending() != 1 {
		t.Fatalf("Run(250) after a Stop at 300 = %v with %d pending; want 300, 1", end, s.Pending())
	}
	s.Run(400)
	if want := []Time{100, 200, 300}; !slices.Equal(fired, want) {
		t.Fatalf("events fired at %v, want %v", fired, want)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	id := s.At(10, func() { fired = true })
	s.Cancel(id)
	s.Cancel(id) // double-cancel is a no-op
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromEvent(t *testing.T) {
	s := New()
	fired := false
	id := s.At(20, func() { fired = true })
	s.At(10, func() { s.Cancel(id) })
	s.RunAll()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestStop(t *testing.T) {
	s := New()
	n := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i, func() {
			n++
			if n == 5 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if n != 5 {
		t.Fatalf("executed %d events after Stop, want 5", n)
	}
	// Run can be resumed.
	s.RunAll()
	if n != 10 {
		t.Fatalf("executed %d events total, want 10", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.RunAll()
}

func TestAfterFromEvent(t *testing.T) {
	s := New()
	var times []Time
	s.At(10, func() {
		s.After(5, func() { times = append(times, s.Now()) })
	})
	s.RunAll()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("After(5) at t=10 fired at %v, want [15]", times)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{-1500, "-1.500us"},
		{Time(math.MinInt64), "-9223372036.854776s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Errorf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Errorf("Millis() = %v", (3 * Millisecond).Millis())
	}
	if (7 * Microsecond).Micros() != 7.0 {
		t.Errorf("Micros() = %v", (7 * Microsecond).Micros())
	}
}

func TestEventCount(t *testing.T) {
	s := New()
	for i := Time(1); i <= 7; i++ {
		s.At(i, func() {})
	}
	s.RunAll()
	if s.EventCount() != 7 {
		t.Fatalf("EventCount = %d, want 7", s.EventCount())
	}
}

// TestBucketIdxOverflowPanics: a bucket position too large for a slot's idx
// panics with a message instead of wrapping into another bucket's encoding
// or a negative sentinel.
func TestBucketIdxOverflowPanics(t *testing.T) {
	const maxPos = 1<<(31-bucketBits) - 1
	if got := bucketIdx(63, maxPos); got != math.MaxInt32 {
		t.Fatalf("bucketIdx(63, %d) = %d, want %d", maxPos, got, math.MaxInt32)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "calendar bucket") {
			t.Fatalf("bucketIdx past the largest position: recovered %v, want a calendar bucket panic", r)
		}
	}()
	bucketIdx(5, maxPos+1)
}
