package core

import (
	"testing"

	"docs/internal/crowd"
)

// TestCampaignDeterminism: a serial campaign is reproducible — two runs of
// the same seeded trace make the same assignments and answers.
func TestCampaignDeterminism(t *testing.T) {
	cfg := Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50}
	a, _ := traceCampaign(t, newSystem(t, cfg), crowd.Adversarial{})
	b, _ := traceCampaign(t, newSystem(t, cfg), crowd.Adversarial{})
	diffTraces(t, "two runs", a, b)
}
