package metrics

import (
	"encoding/json"
	"math"
)

// Histogram is a log-scaled latency histogram: values land in
// power-of-two buckets, so percentile queries are cheap and memory use is
// constant regardless of sample count. Precision is the bucket width
// (~2x), which is plenty for latency distributions spanning 20 to 20,000
// cycles.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     float64
	min     uint64
	max     uint64
}

// Observe records one nonnegative sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += float64(v)
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func bucketOf(v uint64) int {
	b := 0
	for v > 0 {
		v >>= 1
		b++
	}
	if b >= 64 {
		b = 63
	}
	return b
}

// bucketUpper is the largest value a bucket can hold.
func bucketUpper(b int) uint64 {
	if b == 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxUint64
	}
	return 1<<b - 1
}

// Merge folds o's samples into h. Merging shards in a fixed order yields
// the same histogram (including the float64 sum) as observing every sample
// into one histogram shard by shard, which is what keeps sharded counters
// bit-deterministic.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 {
		*h = *o
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count reports how many samples were observed.
func (h *Histogram) Count() uint64 { return h.count }

// Percentile returns an upper bound for the p-th percentile (p in [0,1]),
// accurate to the containing power-of-two bucket.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(p * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range h.buckets {
		cum += c
		if cum >= target {
			u := bucketUpper(b)
			if u > h.max {
				return h.max
			}
			return u
		}
	}
	return h.max
}

// Sum reports the exact sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum }

// BucketCount is one step of a cumulative bucket distribution: Count
// samples were <= UpperBound.
type BucketCount struct {
	UpperBound uint64
	Count      uint64
}

// Cumulative renders the histogram as a cumulative distribution over its
// occupied power-of-two buckets — the shape Prometheus histogram _bucket
// series use (each entry counts samples at or below its upper bound).
// Empty trailing buckets are omitted; callers add the +Inf bucket from
// Count.
func (h *Histogram) Cumulative() []BucketCount {
	var out []BucketCount
	var cum uint64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, BucketCount{UpperBound: bucketUpper(b), Count: cum})
	}
	return out
}

// histogramJSON is the wire form of a Histogram. Buckets are stored as a
// full array so an encode/decode round trip reconstructs the exact
// internal state (the persistent result cache depends on decoded results
// being bit-identical to fresh ones).
type histogramJSON struct {
	Count   uint64     `json:"count"`
	Sum     float64    `json:"sum"`
	Min     uint64     `json:"min"`
	Max     uint64     `json:"max"`
	Buckets [64]uint64 `json:"buckets"`
}

// MarshalJSON encodes the histogram's full internal state. The value
// receiver matters: histograms are embedded by value in result structs,
// and encoding/json only finds pointer-receiver marshalers on addressable
// values.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets,
	})
}

// UnmarshalJSON restores a histogram encoded by MarshalJSON exactly.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = Histogram{buckets: j.Buckets, count: j.Count, sum: j.Sum, min: j.Min, max: j.Max}
	return nil
}
