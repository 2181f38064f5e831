package truth

import (
	"math"
	"testing"

	"docs/internal/model"
)

func TestPinnedTaskKeepsOneHot(t *testing.T) {
	tasks := []*model.Task{
		{ID: 0, Choices: []string{"a", "b"}, Domain: model.DomainVector{1}, Truth: 1, TrueDomain: model.NoTruth},
		{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{1}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	as := model.NewAnswerSet()
	// Both workers answer the pinned task wrong and the free task with "a".
	for _, w := range []string{"w1", "w2"} {
		if err := as.Add(model.Answer{Worker: w, Task: 0, Choice: 0}); err != nil {
			t.Fatal(err)
		}
		if err := as.Add(model.Answer{Worker: w, Task: 1, Choice: 0}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Infer(tasks, as, 1, Options{Pinned: []Pin{{P: 0, Truth: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.S[0][1] != 1 || res.S[0][0] != 0 {
		t.Errorf("pinned s = %v, want one-hot on choice 1", res.S[0])
	}
	if res.Truth[0] != 1 {
		t.Errorf("pinned truth = %d, want 1", res.Truth[0])
	}
	// Both workers were wrong on the pinned task, so their quality must be
	// dragged well below the default.
	for _, w := range []string{"w1", "w2"} {
		if q := res.Quality[w][0]; q > 0.55 {
			t.Errorf("worker %s quality %.2f despite wrong pinned answer", w, q)
		}
	}
}

func TestPinnedValidation(t *testing.T) {
	tasks := []*model.Task{
		{ID: 0, Choices: []string{"a", "b"}, Domain: model.DomainVector{1}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	if _, err := Infer(tasks, model.NewAnswerSet(), 1, Options{Pinned: []Pin{{P: 9, Truth: 0}}}); err == nil {
		t.Error("pinned unknown task accepted")
	}
	if _, err := Infer(tasks, model.NewAnswerSet(), 1, Options{Pinned: []Pin{{P: 0, Truth: 5}}}); err == nil {
		t.Error("pinned out-of-range truth accepted")
	}
}

// TestPinnedAnchorPreventsInversion reconstructs the label-flip failure:
// with an adversarially inverted initialisation and a realistically noisy
// crowd, unanchored EM converges to flipped truths, while pinning a
// handful of golden tasks recovers them. (With a perfectly unanimous crowd
// no finite anchor escapes the basin — a pinned fraction p yields the
// self-consistent flipped quality q = p — so the crowd here is ~80%
// accurate, like a real one.)
func TestPinnedAnchorPreventsInversion(t *testing.T) {
	const nTasks = 40
	tasks := make([]*model.Task, nTasks)
	for i := range tasks {
		tasks[i] = &model.Task{
			ID: i, Choices: []string{"a", "b"},
			Domain: model.DomainVector{1}, Truth: i % 2, TrueDomain: model.NoTruth,
		}
	}
	workers := []string{"w1", "w2", "w3", "w4", "w5"}
	as := model.NewAnswerSet()
	for ti, tk := range tasks {
		for wi, w := range workers {
			// ~80% accurate: worker wi errs on tasks where (ti+wi)%5 == 0.
			choice := tk.Truth
			if (ti+wi)%5 == 0 {
				choice = 1 - tk.Truth
			}
			if err := as.Add(model.Answer{Worker: w, Task: tk.ID, Choice: choice}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Adversarial init: the system believes everyone is mostly a liar.
	badInit := make(map[string]model.QualityVector)
	for _, w := range workers {
		badInit[w] = model.QualityVector{0.15}
	}

	unanchored, err := Infer(tasks, as, 1, Options{InitQuality: badInit, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	accU, _ := Accuracy(tasks, unanchored.Truth)
	if accU > 0.5 {
		t.Fatalf("expected the unanchored run to invert (got accuracy %.2f); the scenario no longer demonstrates the basin", accU)
	}

	var pinned []Pin
	for i := 0; i < 8; i++ {
		pinned = append(pinned, Pin{P: int32(i), Truth: int32(tasks[i].Truth)})
	}
	anchored, err := Infer(tasks, as, 1, Options{InitQuality: badInit, Pinned: pinned, MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	accA, _ := Accuracy(tasks, anchored.Truth)
	if accA < 0.9 {
		t.Errorf("anchored accuracy %.2f, want >= 0.9 (golden pins must pull EM out of the flipped basin)", accA)
	}
	// And the quality estimates must have recovered too.
	for _, w := range workers {
		if q := anchored.Quality[w][0]; math.Abs(q-0.8) > 0.1 {
			t.Errorf("worker %s anchored quality %.2f, want ≈0.8", w, q)
		}
	}
}

func TestPinnedTasksContributeToQuality(t *testing.T) {
	// A worker who only answered a pinned task still gets a quality
	// estimate from it (that is the anchoring mechanism).
	tasks := []*model.Task{
		{ID: 0, Choices: []string{"a", "b"}, Domain: model.DomainVector{1}, Truth: 0, TrueDomain: model.NoTruth},
	}
	as := model.NewAnswerSet()
	if err := as.Add(model.Answer{Worker: "right", Task: 0, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	if err := as.Add(model.Answer{Worker: "wrong", Task: 0, Choice: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := Infer(tasks, as, 1, Options{Pinned: []Pin{{P: 0, Truth: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality["right"][0] <= res.Quality["wrong"][0] {
		t.Errorf("pinned evidence did not separate qualities: right %.2f, wrong %.2f",
			res.Quality["right"][0], res.Quality["wrong"][0])
	}
}
