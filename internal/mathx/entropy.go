// Package mathx provides the small numeric substrate DOCS is built on:
// Shannon entropy over discrete distributions, linear-time
// top-k selection (the PICK algorithm the paper cites for O(n) assignment),
// distribution helpers, and a deterministic random source used by the
// simulators so every experiment is reproducible.
package mathx

import "math"

// Entropy returns the Shannon entropy H(p) = -Σ p_i ln p_i in nats.
// Zero-probability entries contribute nothing (lim x→0 of x ln x = 0).
// Entries are not required to be normalized; callers that pass a proper
// distribution get the textbook value.
func Entropy(p []float64) float64 {
	var h float64
	for _, x := range p {
		if x > 0 {
			h -= x * math.Log(x)
		}
	}
	return h
}

// MaxEntropy returns the entropy of the uniform distribution over n
// outcomes, ln n, which upper-bounds Entropy for any distribution of size n.
func MaxEntropy(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log(float64(n))
}
