package model

import (
	"math"
	"testing"
)

func TestNewDomainSet(t *testing.T) {
	ds, err := NewDomainSet([]string{"politics", "sports", "films"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Size() != 3 {
		t.Errorf("Size = %d, want 3", ds.Size())
	}
	if k, ok := ds.Index("sports"); !ok || k != 1 {
		t.Errorf("Index(sports) = %d,%v, want 1,true", k, ok)
	}
	if _, ok := ds.Index("cooking"); ok {
		t.Error("Index(cooking) should not exist")
	}
	if ds.Name(2) != "films" {
		t.Errorf("Name(2) = %q", ds.Name(2))
	}
}

func TestNewDomainSetErrors(t *testing.T) {
	if _, err := NewDomainSet(nil); err == nil {
		t.Error("empty domain set accepted")
	}
	if _, err := NewDomainSet([]string{"a", "a"}); err == nil {
		t.Error("duplicate domain accepted")
	}
	if _, err := NewDomainSet([]string{"a", ""}); err == nil {
		t.Error("empty domain name accepted")
	}
}

func TestDomainSetNamesIsCopy(t *testing.T) {
	ds := MustDomainSet([]string{"a", "b"})
	names := ds.Names()
	names[0] = "mutated"
	if ds.Name(0) != "a" {
		t.Error("Names() leaked internal slice")
	}
}

func TestDomainVectorValidate(t *testing.T) {
	v := DomainVector{0, 0.78, 0.22}
	if err := v.Validate(3); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	if err := v.Validate(4); err == nil {
		t.Error("wrong size accepted")
	}
	if err := (DomainVector{0.5, 0.4}).Validate(2); err == nil {
		t.Error("sum 0.9 accepted")
	}
}

// TestDomainVectorSupport: r_k > 0 is the one definition of "the task
// relates to domain k". A negative entry, however close to zero, is not a
// domain vector at all — it would be in the support by r_k ≠ 0 and out of it
// by r_k > 0 — while −0 is legal and out, and a denormal is in.
func TestDomainVectorSupport(t *testing.T) {
	negZero := math.Copysign(0, -1)
	v := DomainVector{0, negZero, math.SmallestNonzeroFloat64, 0.25, 0.75}
	if err := v.Validate(5); err != nil {
		t.Fatalf("−0 and a denormal are legal entries: %v", err)
	}
	for k, want := range []bool{false, false, true, true, true} {
		if v.Has(k) != want {
			t.Errorf("Has(%d) = %v for entry %g, want %v", k, v.Has(k), v[k], want)
		}
	}
	if v.Support() != 3 {
		t.Errorf("Support = %d, want 3", v.Support())
	}
	for _, neg := range []float64{-1e-7, -math.SmallestNonzeroFloat64, -0.5} {
		if err := (DomainVector{neg, 1 - neg}).Validate(2); err == nil {
			t.Errorf("an entry of %g was accepted", neg)
		}
	}
}

func TestDomainVectorTop(t *testing.T) {
	if top := (DomainVector{0, 0.78, 0.22}).Top(); top != 1 {
		t.Errorf("Top = %d, want 1", top)
	}
}

func TestQualityVectorValidate(t *testing.T) {
	q := QualityVector{0.3, 0.9, 0.6}
	if err := q.Validate(3); err != nil {
		t.Errorf("valid quality rejected: %v", err)
	}
	if err := (QualityVector{1.5, 0, 0}).Validate(3); err == nil {
		t.Error("quality > 1 accepted")
	}
	if err := q.Validate(2); err == nil {
		t.Error("wrong size accepted")
	}
}

func TestQualityExpected(t *testing.T) {
	q := QualityVector{0.3, 0.9, 0.6}
	r := DomainVector{0, 0.78, 0.22}
	want := 0.9*0.78 + 0.6*0.22
	if got := q.Expected(r); !almost(got, want) {
		t.Errorf("Expected = %g, want %g", got, want)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestTaskValidate(t *testing.T) {
	task := &Task{ID: 1, Text: "x", Choices: []string{"yes", "no"}, Truth: 0, TrueDomain: NoTruth}
	if err := task.Validate(3); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := &Task{ID: 2, Choices: []string{"only"}, Truth: NoTruth, TrueDomain: NoTruth}
	if err := bad.Validate(3); err == nil {
		t.Error("single-choice task accepted")
	}
	badTruth := &Task{ID: 3, Choices: []string{"a", "b"}, Truth: 5, TrueDomain: NoTruth}
	if err := badTruth.Validate(3); err == nil {
		t.Error("out-of-range truth accepted")
	}
	badDom := &Task{ID: 4, Choices: []string{"a", "b"}, Truth: NoTruth, TrueDomain: 9}
	if err := badDom.Validate(3); err == nil {
		t.Error("out-of-range true domain accepted")
	}
	badVec := &Task{ID: 5, Choices: []string{"a", "b"}, Truth: NoTruth, TrueDomain: NoTruth,
		Domain: DomainVector{0.5, 0.4, 0.2}}
	if err := badVec.Validate(3); err == nil {
		t.Error("non-normalized domain vector accepted")
	}
	// The durable formats store IDs unsigned.
	badID := &Task{ID: -1, Choices: []string{"a", "b"}, Truth: NoTruth, TrueDomain: NoTruth}
	if err := badID.Validate(3); err == nil {
		t.Error("negative task ID accepted")
	}
}

func TestAnswerSet(t *testing.T) {
	s := NewAnswerSet()
	mustAdd := func(a Answer) {
		t.Helper()
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(Answer{Worker: "w1", Task: 0, Choice: 0})
	mustAdd(Answer{Worker: "w2", Task: 0, Choice: 1})
	mustAdd(Answer{Worker: "w1", Task: 1, Choice: 1})

	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if n := len(s.ForTask(0)); n != 2 {
		t.Errorf("ForTask(0) has %d answers, want 2", n)
	}
	if n := len(s.ForWorker("w1")); n != 2 {
		t.Errorf("ForWorker(w1) has %d answers, want 2", n)
	}
	if !s.Has("w1", 1) || s.Has("w2", 1) {
		t.Error("Has gave wrong membership")
	}
	if err := s.Add(Answer{Worker: "w1", Task: 0, Choice: 1}); err == nil {
		t.Error("duplicate answer accepted")
	}
	if got := len(s.Workers()); got != 2 {
		t.Errorf("Workers = %d, want 2", got)
	}
	if got := len(s.Tasks()); got != 2 {
		t.Errorf("Tasks = %d, want 2", got)
	}
}
