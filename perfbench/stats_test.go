package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyondRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // rank 989: samples 991..1000 lie beyond it
		{999, 0.99, 0, false},   // only 9 beyond the rank
		{20, 0.5, 10, true},
		{19, 0.5, 0, false}, // rank 9 (value 10) leaves only 9 beyond
		{0, 0.5, 0, false},
		{100, 0.9, 90, true},
	} {
		got, ok := percentile(ramp(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestChunkedP99(t *testing.T) {
	if _, ok := chunkedP99(ramp(999)); ok {
		t.Error("999 samples gave a p99")
	}
	// Three chunks whose p99s are 990, 5 and 7: the median ignores the
	// one chunk a burst of noise inflated.
	lat := ramp(1000)
	for i := 0; i < 1000; i++ {
		lat = append(lat, 5)
	}
	for i := 0; i < 1000; i++ {
		lat = append(lat, 7)
	}
	got, ok := chunkedP99(lat)
	if !ok || got != 7 {
		t.Errorf("chunkedP99 = %v, %v; want 7, true", got, ok)
	}
	// A trailing partial chunk is not used.
	if got, _ := chunkedP99(append(lat, ramp(500)...)); got != 7 {
		t.Errorf("partial chunk changed the result to %v", got)
	}
}

// openLoop builds due and done times for n requests at rate r per
// second, each taking service(i) to complete after it is due, served
// one at a time in order.
func openLoop(start time.Time, n int, rate float64, service time.Duration) (due, done []time.Time) {
	free := start
	for i := 0; i < n; i++ {
		d := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		begin := d
		if free.After(begin) {
			begin = free
		}
		free = begin.Add(service)
		due = append(due, d)
		done = append(done, free)
	}
	return due, done
}

func TestBacklogGrew(t *testing.T) {
	start := time.Unix(1000, 0)
	step := 2 * time.Second
	rate := 1000.0
	n := int(rate * step.Seconds())
	// Service 0.5 ms at 1,000/s: half busy, the backlog stays flat.
	due, done := openLoop(start, n, rate, 500*time.Microsecond)
	if backlogGrew(due, done, start, step, rate*0.05+5) {
		t.Error("a half-busy server was reported as falling behind")
	}
	// Service 1.2 ms at 1,000/s: 20% overloaded, the backlog grows by
	// ~170 requests per second.
	due, done = openLoop(start, n, rate, 1200*time.Microsecond)
	if !backlogGrew(due, done, start, step, rate*0.05+5) {
		t.Error("an overloaded server was not reported as falling behind")
	}
	// Requests that never complete count as backlog too.
	due, done = openLoop(start, n, rate, 500*time.Microsecond)
	for i := n / 2; i < n; i++ {
		done[i] = time.Time{}
	}
	if !backlogGrew(due, done, start, step, rate*0.05+5) {
		t.Error("unanswered requests were not counted as backlog")
	}
}
