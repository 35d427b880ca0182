package main

import "sort"

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place; an empty xs gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// warmCount is how many of a phase's n slices or samples are warm-up:
// the first tenth, rounded up, unless that would leave nothing.
func warmCount(n int) int {
	if n < 2 {
		return 0
	}
	return (n + 9) / 10
}

func dropWarm[T any](xs []T) []T { return xs[warmCount(len(xs)):] }
