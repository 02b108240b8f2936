package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is a handful of outliers, not a
// distribution point.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// beyond reports how many of n samples lie strictly past the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailOK reports whether a q-quantile of n samples has at least minTail
// samples beyond it.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minTail }

// median of vals: the middle value, or the mean of the two middle ones.
func median(vals []float64) float64 {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// latSummary is one op kind's latency distribution over a measured window.
type latSummary struct {
	N        int
	P50, P99 int64 // ns
}

func summarize(lats []int64) latSummary {
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return latSummary{N: len(s), P50: percentile(s, 0.50), P99: percentile(s, 0.99)}
}

// maxWindows caps how many equal windows a run's samples are split into.
const maxWindows = 15

// windowed splits samples by start time into k equal windows of [0, span)
// and returns each window's values.
func windowed(starts, vals []int64, span int64, k int) [][]int64 {
	out := make([][]int64, k)
	for i, s := range starts {
		if s < 0 || s >= span {
			continue
		}
		w := int(s * int64(k) / span)
		out[w] = append(out[w], vals[i])
	}
	return out
}

// windowedPercentile is the median, over equal time windows of the run, of
// each window's q-quantile: steadier than one quantile over the whole run
// when the machine's background load comes in bursts. It uses as many
// windows (up to maxWindows) as keep at least minTail samples beyond the
// quantile in every window; it errors when even the whole run has too few.
func windowedPercentile(what string, starts, vals []int64, span int64, q float64) (int64, error) {
	for k := maxWindows; k >= 1; k-- {
		var per []float64
		for _, w := range windowed(starts, vals, span, k) {
			if !tailOK(len(w), q) {
				per = nil
				break
			}
			sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
			per = append(per, float64(percentile(w, q)))
		}
		if per != nil {
			return int64(median(per)), nil
		}
	}
	return 0, fmt.Errorf("%s: %d samples leave %d beyond the %v quantile (need %d); run longer",
		what, len(vals), beyond(len(vals), q), q, minTail)
}

// windowedRate is the median, over maxWindows equal windows of [0, span),
// of each window's events per second.
func windowedRate(times []int64, span int64) float64 {
	var per []float64
	for _, w := range windowed(times, times, span, maxWindows) {
		per = append(per, float64(len(w))/(float64(span)/maxWindows/1e9))
	}
	return median(per)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }
