package entitylink_test

import (
	"math"
	"testing"

	"docs/internal/dataset"
	"docs/internal/dve"
	"docs/internal/entitylink"
	"docs/internal/kb"
)

// checkVectorMatchesReference holds the domain vector a reused dve.Workspace
// gives text — what each of Publish's DVE goroutines computes — to DVE over
// the reference linking, bit for bit.
func checkVectorMatchesReference(t *testing.T, ws *dve.Workspace, l *entitylink.Linker, m int, text string) {
	t.Helper()
	got := ws.Vector(l, text, m)
	want := dve.Normalized(dve.FromLinked(entitylink.LinkReference(l, text), m), m)
	if len(got) != len(want) {
		t.Fatalf("Vector(%q) has %d elements, reference %d", text, len(got), len(want))
	}
	for k := range want {
		if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
			t.Fatalf("Vector(%q)[%d] = %x (%g), reference %x (%g)", text, k, g, got[k], w, want[k])
		}
	}
}

// TestPropertyDVEMatchesReference holds the publish path's domain vector to
// DVE over linkReference on every task text of the four datasets over six
// seeds, and on the adversarial texts against both knowledge bases, at the
// default and at a truncating TopC — through one workspace, reused across
// all of them.
func TestPropertyDVEMatchesReference(t *testing.T) {
	var texts []string
	for seed := uint64(1); seed <= 6; seed++ {
		for _, name := range dataset.Names() {
			ds, err := dataset.ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range ds.Tasks {
				texts = append(texts, task.Text)
			}
		}
	}
	texts = append(texts, entitylink.AdversarialTexts...)
	var ws dve.Workspace
	linked := 0
	for _, k := range []*kb.KB{kb.MustDefault(), entitylink.AdversarialKB(t)} {
		for _, topC := range []int{entitylink.DefaultTopC, 2} {
			l := entitylink.New(k)
			l.TopC = topC
			for _, text := range texts {
				checkVectorMatchesReference(t, &ws, l, k.Domains().Size(), text)
				linked += len(l.Link(text))
			}
		}
	}
	if linked < len(texts) {
		t.Errorf("only %d entities linked over %d texts: the property is vacuous", linked, len(texts))
	}
}

func FuzzLinkMatchesReference(f *testing.F) {
	for _, text := range entitylink.AdversarialTexts {
		f.Add(text)
	}
	kbs := []*kb.KB{kb.MustDefault(), entitylink.AdversarialKB(f)}
	var ws dve.Workspace // reused from input to input
	f.Fuzz(func(t *testing.T, text string) {
		for _, k := range kbs {
			l := entitylink.New(k)
			entitylink.CheckLinkMatchesReference(t, l, text)
			checkVectorMatchesReference(t, &ws, l, k.Domains().Size(), text)
		}
	})
}
