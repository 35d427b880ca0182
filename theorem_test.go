package antipersist

import (
	"fmt"
	"testing"
)

// theoremRangeKs are the range-query lengths of the Theorem 2 rows.
var theoremRangeKs = [3]int{64, 1024, 4096}

// theoremBands is the record TestTheoremBands holds the structures to:
// for each (N, B), measured I/Os per op divided by the theorem's shape
// term, as measured when the row was written (seeds are fixed and the
// DAM counters exact, so an unchanged structure reproduces every value
// to the last digit). A zero range entry means k >= N: not measured.
var theoremBands = []struct {
	n, blk     int
	cobtSearch float64    // Theorem 2: HI COBT search ÷ log_B N
	cobtRange  [3]float64 // Theorem 2: HI COBT k-key range ÷ (log_B N + k/B), k as in theoremRangeKs
	skipSearch float64    // Theorem 3: HI skip list search ÷ log_B N
	pmaInsert  float64    // Theorem 1: HI PMA insert ÷ (log²N/B + log_B N)
}{
	{1 << 12, 16, 2.177, [3]float64{5.289, 6.883, 0}, 0.739, 9.104},
	{1 << 12, 64, 1.230, [3]float64{3.263, 6.541, 0}, 0.394, 5.679},
	{1 << 12, 256, 0.401, [3]float64{1.034, 2.913, 0}, 0.013, 0.867},
	{1 << 14, 16, 2.181, [3]float64{3.393, 3.968, 3.886}, 0.961, 7.621},
	{1 << 14, 64, 1.599, [3]float64{2.487, 3.788, 3.883}, 0.707, 5.804},
	{1 << 14, 256, 0.654, [3]float64{1.190, 2.485, 3.464}, 0.390, 3.025},
	{1 << 16, 16, 2.470, [3]float64{3.792, 4.599, 4.554}, 1.065, 13.438},
	{1 << 16, 64, 2.035, [3]float64{2.880, 4.602, 4.582}, 0.832, 10.449},
	{1 << 16, 256, 1.423, [3]float64{1.902, 3.595, 4.409}, 0.655, 6.505},
}

// meanIOs runs op reps times against freshly reset counters (and a
// cold cache) and returns the mean I/Os per op.
func meanIOs(io *IOTracker, reps int, op func()) float64 {
	io.Reset()
	for i := 0; i < reps; i++ {
		op()
	}
	return float64(io.IOs()) / float64(reps)
}

// TestTheoremBands turns the paper's I/O theorems into a gate. For
// N ∈ {2^12, 2^14, 2^16} × B ∈ {16, 64, 256} it measures search I/Os
// on the HI cache-oblivious B-tree and the HI skip list, amortized
// insert I/Os on the HI PMA, and COBT range-query I/Os, each divided by
// its theorem's shape term, and asserts two things of every ratio:
//
//   - it stays within ±25 % of the value recorded in theoremBands, so a
//     change that moves the constant factor of any structure at any
//     size shows up here, with the row to re-measure;
//
//   - at fixed B it drifts by less than 2× across N — the theorem
//     itself: cost grows like the shape term and no faster. Only rows
//     whose structure is at least four times the cache (N ≥ 4·64·B)
//     take part, because the theorems bound transfers for N well past
//     the memory size: a structure that fits in the 64 frames costs
//     next to nothing once warm, which says nothing about the shape.
//
// Lemma 15 rides along: at B = 32, N = 2^15 and a cold cache the
// folklore B-skip list's worst search costs more than the HI skip
// list's. -short drops N = 2^16 (the full run takes about 7 s).
func TestTheoremBands(t *testing.T) {
	const tolerance = 0.25
	const maxDrift = 2.0
	const pointOps, rangeOps = 2000, 100

	type series struct {
		metric string
		blk    int
	}
	outOfCache := map[series][]float64{}
	for _, row := range theoremBands {
		if testing.Short() && row.n > 1<<14 {
			continue
		}
		check := func(metric string, got, recorded float64) {
			t.Helper()
			if got < recorded*(1-tolerance) || got > recorded*(1+tolerance) {
				t.Errorf("N=%d B=%d %s: %.3f I/Os per shape unit, recorded %.3f (band ±%.0f%%)",
					row.n, row.blk, metric, got, recorded, tolerance*100)
			}
			if row.n >= 4*damCacheFrames*row.blk {
				s := series{metric, row.blk}
				outOfCache[s] = append(outOfCache[s], got)
			}
		}

		io, d, search := cobtExp(row.n, row.blk)
		check("cobt search", meanIOs(io, pointOps, search)/logB(row.n, row.blk), row.cobtSearch)
		for i, k := range theoremRangeKs {
			if k < row.n {
				check(fmt.Sprintf("cobt range k=%d", k),
					meanIOs(io, rangeOps, cobtRangeOp(d, row.n, k))/rangeShape(row.n, row.blk, k), row.cobtRange[i])
			}
		}
		io, search = skipSearchExp(row.n, row.blk)
		check("skip search", meanIOs(io, pointOps, search)/logB(row.n, row.blk), row.skipSearch)
		io, insert := pmaInsertExp(row.n, row.blk)
		check("pma insert", meanIOs(io, pointOps, insert)/pmaInsertShape(row.n, row.blk), row.pmaInsert)
	}
	for s, ratios := range outOfCache {
		lo, hi := ratios[0], ratios[0]
		for _, r := range ratios {
			lo, hi = min(lo, r), max(hi, r)
		}
		if hi >= maxDrift*lo {
			t.Errorf("B=%d %s: ratio to the theorem's shape drifts %.3f → %.3f across N (limit %.0f×)",
				s.blk, s.metric, lo, hi, maxDrift)
		}
	}

	hi, folklore := coldSearchCosts(false, 23), coldSearchCosts(true, 23)
	if worstHI, worstFL := hi[len(hi)-1], folklore[len(folklore)-1]; worstFL <= worstHI {
		t.Errorf("Lemma 15: folklore B-skip list's worst cold search is %d I/Os, HI skip list's %d; want folklore worse",
			worstFL, worstHI)
	}
}
