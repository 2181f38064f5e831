package mathx

// TopK returns the indices of the k largest values in vals, in descending
// value order. It runs in O(n + k log k): a linear-time selection (the PICK
// algorithm of Blum, Floyd, Pratt, Rivest and Tarjan, which the paper cites
// for its O(n) assignment step) partitions the candidates, then only the k
// survivors are sorted. vals is not modified. If k >= len(vals), all indices
// are returned sorted by value.
func TopK(vals []float64, k int) []int {
	if k <= 0 || len(vals) == 0 {
		return nil
	}
	return TopKInto(make([]int, len(vals)), vals, k)
}

// TopKInto is TopK working in idx, which must be len(vals) long: the result
// is a prefix of idx, and nothing is allocated.
func TopKInto(idx []int, vals []float64, k int) []int {
	n := len(vals)
	if k <= 0 || n == 0 {
		return nil
	}
	for i := range idx {
		idx[i] = i
	}
	if k > n {
		k = n
	}
	selectTopK(vals, idx, 0, n-1, k)
	out := idx[:k:k]
	// Sort the k winners in descending value order (insertion sort keeps the
	// dependency surface zero and k is small in every caller).
	for i := 1; i < len(out); i++ {
		j := i
		for j > 0 && vals[out[j]] > vals[out[j-1]] {
			out[j], out[j-1] = out[j-1], out[j]
			j--
		}
	}
	return out
}

// selectTopK partially partitions idx[lo..hi] so that the k largest values
// (by vals) occupy idx[0..k-1]. Median-of-medians pivot selection gives the
// worst-case linear bound.
func selectTopK(vals []float64, idx []int, lo, hi, k int) {
	for lo < hi {
		p := medianOfMedians(vals, idx, lo, hi)
		p = partitionDesc(vals, idx, lo, hi, p)
		switch {
		case p == k-1:
			return
		case p > k-1:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// partitionDesc partitions idx[lo..hi] around the value at pivot index so
// that larger values come first, returning the pivot's final position.
func partitionDesc(vals []float64, idx []int, lo, hi, pivot int) int {
	pv := vals[idx[pivot]]
	idx[pivot], idx[hi] = idx[hi], idx[pivot]
	store := lo
	for i := lo; i < hi; i++ {
		if vals[idx[i]] > pv {
			idx[store], idx[i] = idx[i], idx[store]
			store++
		}
	}
	idx[store], idx[hi] = idx[hi], idx[store]
	return store
}

// medianOfMedians returns an index into idx[lo..hi] whose value is a
// guaranteed-good pivot (between the 30th and 70th percentile).
func medianOfMedians(vals []float64, idx []int, lo, hi int) int {
	n := hi - lo + 1
	if n <= 5 {
		return median5(vals, idx, lo, hi)
	}
	// Move the median of each group of 5 to the front of the range.
	dst := lo
	for i := lo; i <= hi; i += 5 {
		end := i + 4
		if end > hi {
			end = hi
		}
		m := median5(vals, idx, i, end)
		idx[m], idx[dst] = idx[dst], idx[m]
		dst++
	}
	mid := lo + (dst-lo-1)/2
	selectNthDesc(vals, idx, lo, dst-1, mid)
	return mid
}

// median5 sorts idx[lo..hi] (at most 5 elements) descending by value and
// returns the index of the median position.
func median5(vals []float64, idx []int, lo, hi int) int {
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return lo + (hi-lo)/2
}

// selectNthDesc rearranges idx[lo..hi] so idx[nth] holds the element that
// belongs at position nth in descending order.
func selectNthDesc(vals []float64, idx []int, lo, hi, nth int) {
	for lo < hi {
		p := median5approx(vals, idx, lo, hi)
		p = partitionDesc(vals, idx, lo, hi, p)
		switch {
		case p == nth:
			return
		case p > nth:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// median5approx picks a pivot by median-of-three; used only inside the
// recursive median computation where adversarial inputs cannot arise.
func median5approx(vals []float64, idx []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	a, b, c := vals[idx[lo]], vals[idx[mid]], vals[idx[hi]]
	switch {
	case (a >= b) == (b >= c):
		return mid
	case (b >= a) == (a >= c):
		return lo
	default:
		return hi
	}
}
