package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile's rank before
// the percentile is reported at all.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples. ok is false when fewer than minTail samples lie beyond the
// rank, so a p99 needs at least 1,000 samples.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minTail {
		return 0, false
	}
	return sorted[rank], true
}

// p99Chunk is the number of requests, in due order, over which one p99 is
// taken: the fewest that leave ten samples beyond the rank.
const p99Chunk = 1000

// chunkedP99 splits latencies (in due order) into consecutive chunks of
// p99Chunk requests, takes each chunk's p99 and returns their median. A
// burst of host noise then moves one chunk's p99 instead of the run's.
// ok is false when there is not one full chunk.
func chunkedP99(lat []float64) (float64, bool) {
	var p99s []float64
	for i := 0; i+p99Chunk <= len(lat); i += p99Chunk {
		c := append([]float64(nil), lat[i:i+p99Chunk]...)
		sort.Float64s(c)
		v, _ := percentile(c, 0.99)
		p99s = append(p99s, v)
	}
	if len(p99s) == 0 {
		return 0, false
	}
	return median(p99s), true
}

// median returns the median of samples (which it sorts in place), or 0
// for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// backlogGrew reports whether an open-loop step built a growing backlog.
// The backlog at an instant is the number of requests due but not yet
// completed; it is sampled at eight even points over the step, and the
// backlog grew when the mean of the last four samples exceeds the mean
// of the first four by more than slack. A system keeping up holds the
// backlog flat, whatever its latency. due and done hold each request's
// due and completion times (done zero when it never completed).
func backlogGrew(due, done []time.Time, start time.Time, step time.Duration, slack float64) bool {
	at := func(t time.Time) int {
		n := 0
		for i := range due {
			if due[i].After(t) {
				continue
			}
			if done[i].IsZero() || done[i].After(t) {
				n++
			}
		}
		return n
	}
	const points = 8
	var early, late float64
	for i := 1; i <= points; i++ {
		b := float64(at(start.Add(step * time.Duration(i) / points)))
		if i <= points/2 {
			early += b
		} else {
			late += b
		}
	}
	return (late-early)/(points/2) > slack
}
