package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram is a fixed-size log-bucket (HDR-style) histogram of
// non-negative int64 values. Values below 16 get exact unit buckets;
// above that, each power of two is split into 8 sub-buckets, bounding
// the relative quantile error at 1/16 (6.25%) while keeping the whole
// structure a flat array — Observe is a handful of bit operations and
// one increment, with no allocation, suitable for a worker's hot
// protocol path. The zero value is an empty histogram ready for use.
type Histogram struct {
	n, sum   int64
	min, max int64
	buckets  [numBuckets]int64
}

// Buckets 0..15 are exact; log buckets cover bit lengths 5..63 with 8
// sub-buckets each.
const (
	linearBuckets = 16
	subBuckets    = 8
	numBuckets    = linearBuckets + (63-4)*subBuckets
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < linearBuckets {
		return int(v)
	}
	nbits := bits.Len64(uint64(v)) // >= 5 here
	sub := int((v >> (nbits - 4)) & (subBuckets - 1))
	return linearBuckets + (nbits-5)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket b.
func bucketLow(b int) int64 {
	if b < linearBuckets {
		return int64(b)
	}
	nbits := (b-linearBuckets)/subBuckets + 5
	sub := int64((b - linearBuckets) % subBuckets)
	return int64(1)<<(nbits-1) + sub<<(nbits-4)
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() int64 { return h.min }
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]): the lower
// bound of the bucket holding the rank-⌈q·n⌉ observation, clamped to the
// observed [min, max]. Exact for values below 16, within 6.25% above.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	// The documented contract is the rank-⌈q·n⌉ observation (1-based).
	// floor(q·n) followed by a strictly-greater scan lands one rank too
	// high exactly when q·n is an integer (q=0.5 with even n, q=0.25 with
	// n divisible by 4, ...), so take the ceiling and scan with >=.
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank > h.n {
		rank = h.n
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen >= rank {
			v := bucketLow(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Summarize renders "p50=… p95=… p99=… max=… (n=…)" with values passed
// through the fmt formatter (e.g. a ns→duration prettifier).
func (h *Histogram) Summarize(format func(int64) string) string {
	if h.n == 0 {
		return "(no samples)"
	}
	var b strings.Builder
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		fmt.Fprintf(&b, "%s=%s ", p.name, format(h.Quantile(p.q)))
	}
	fmt.Fprintf(&b, "max=%s (n=%d)", format(h.max), h.n)
	return b.String()
}
