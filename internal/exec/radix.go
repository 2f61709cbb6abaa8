package exec

import "math"

// radixMinLen is the value count below which Sorted.Values keeps the
// comparison-sort path: the radix pass allocates two key buffers and
// walks fixed histograms, overhead that only amortizes on larger
// columns.
const radixMinLen = 4096

// radixSortFloat64 sorts vals ascending in place with an LSD radix
// sort over order-preserving uint64 keys: flipping the sign bit of
// non-negative floats and all bits of negative ones makes unsigned key
// order equal IEEE-754 total order, so the sorted keys decode to the
// exact float ordering sort.Float64s produces — including ±Inf —
// PROVIDED the input holds no NaN (whose keys interleave with real
// values, while sort.Float64s places all NaNs first) and no negative
// zero (whose key differs from +0's, while sort.Float64s treats them
// as equal and orders ties arbitrarily). Sorted.Values enforces both
// preconditions and falls back to sort.Float64s otherwise; under them
// equal values have equal bits, so the output is bit-identical to the
// comparison sort's.
//
// Keys are consumed 11 bits at a time (6 passes over 2048-count
// histograms, all tallied in one read of the data); passes whose digit
// is constant across the input — common when data spans a narrow
// exponent range — are skipped.
func radixSortFloat64(vals []float64) {
	n := len(vals)
	if n < 2 {
		return
	}
	keys := make([]uint64, n)
	tmp := make([]uint64, n)
	for i, v := range vals {
		b := math.Float64bits(v)
		keys[i] = b ^ (uint64(int64(b)>>63) | (1 << 63))
	}
	const digits = 6
	const bucketBits = 11
	const buckets = 1 << bucketBits
	var counts [digits][buckets]int32
	for _, k := range keys {
		counts[0][k&(buckets-1)]++
		counts[1][(k>>bucketBits)&(buckets-1)]++
		counts[2][(k>>(2*bucketBits))&(buckets-1)]++
		counts[3][(k>>(3*bucketBits))&(buckets-1)]++
		counts[4][(k>>(4*bucketBits))&(buckets-1)]++
		counts[5][(k>>(5*bucketBits))&(buckets-1)]++
	}
	for d := 0; d < digits; d++ {
		c := &counts[d]
		// A digit whose first occupied bucket holds every key is
		// constant: the scatter would be the identity.
		constant := false
		for b := 0; b < buckets; b++ {
			if c[b] != 0 {
				constant = int(c[b]) == n
				break
			}
		}
		if constant {
			continue
		}
		var pos [buckets]int32
		var sum int32
		for b := 0; b < buckets; b++ {
			pos[b] = sum
			sum += c[b]
		}
		shift := uint(bucketBits * d)
		for _, k := range keys {
			b := (k >> shift) & (buckets - 1)
			tmp[pos[b]] = k
			pos[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		vals[i] = math.Float64frombits(k ^ (((k >> 63) - 1) | (1 << 63)))
	}
}
