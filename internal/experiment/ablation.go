package experiment

import (
	"docs/internal/baselines"
)

// AblationStudy isolates the contribution of each DOCS design choice on
// one end-to-end campaign per dataset under the Figure 8 protocol (this
// experiment has no direct analogue in the paper's figures; it
// substantiates the design arguments of Sections 4–5):
//
//	DOCS            — full system: domain-aware TI + benefit assignment +
//	                  golden profiling
//	−golden         — no golden-task profiling (flat quality init)
//	−benefit        — assignment by domain match only (D-Max): shows the
//	                  value of the entropy-reduction benefit
//	−domains        — scalar worker model with benefit-style assignment
//	                  (QASCA): shows the value of the domain dimension
//	−assignment     — random assignment with domain-aware TI: shows the
//	                  value of OTA as a whole
//
// DOCS, −golden and −assignment run the served core (servedDOCS).
func AblationStudy(seed uint64, quick bool) (*Table, error) {
	t := &Table{
		Title:  "Ablation: contribution of each DOCS design choice (end-to-end accuracy)",
		Header: []string{"Dataset", "DOCS", "-golden", "-benefit", "-domains", "-assignment"},
		Notes: []string{
			"-golden: no golden profiling; -benefit: domain match only (D-Max);",
			"-domains: scalar worker model (QASCA); -assignment: random assignment + DOCS TI",
		},
	}
	names := quickNames(quick)
	for _, name := range names {
		p, err := Prepare(name, Options{Seed: seed, SkipCollect: true})
		if err != nil {
			return nil, err
		}
		tasks, total := fig8Tasks(p, quick)

		random := newServedDOCS(p.M, fig8K, fig8Cap, p.InitStats)
		random.pick = baselines.NewRandomAssigner(seed)
		variants := []baselines.Assigner{
			newServedDOCS(p.M, fig8K, fig8Cap, p.InitStats),
			newServedDOCS(p.M, fig8K, fig8Cap, nil),
			baselines.NewDMaxAssigner(p.M, p.InitStats),
			baselines.NewQASCAAssigner(ScalarInit(p.InitQuality)),
			random,
		}
		row := []string{name}
		for _, v := range variants {
			res, err := RunCampaign(v, tasks, p.Pop, total, fig8K, fig8Cap, seed)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(res.Accuracy))
		}
		t.AddRow(row...)
	}
	return t, nil
}
