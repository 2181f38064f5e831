package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestEntropyUniform(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 26} {
		h := Entropy(Uniform(n))
		want := math.Log(float64(n))
		if !almostEqual(h, want, 1e-12) {
			t.Errorf("Entropy(Uniform(%d)) = %g, want %g", n, h, want)
		}
	}
}

func TestEntropyDegenerate(t *testing.T) {
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Errorf("Entropy(point mass) = %g, want 0", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Errorf("Entropy(nil) = %g, want 0", h)
	}
}

func TestMaxEntropyBoundsEntropy(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		p := make([]float64, len(raw))
		for i, x := range raw {
			p[i] = math.Abs(x)
			if math.IsNaN(p[i]) || math.IsInf(p[i], 0) {
				p[i] = 1
			}
		}
		Normalize(p)
		h := Entropy(p)
		return h >= -1e-12 && h <= MaxEntropy(len(p))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
