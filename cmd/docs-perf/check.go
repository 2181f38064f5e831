package main

import "fmt"

// observed is what the output checker judges: the harness's own tally
// against what the server reported at each phase boundary.
type observed struct {
	spec       spec
	violations []string // protocol breaches seen by the clients
	// ackedTotal is every acknowledged non-golden answer; ackedProbe the
	// share of it that went to the probe campaign (the one whose /stats
	// and /results are read).
	ackedTotal, ackedProbe int64
	// Server-side counts of accepted non-golden answers: summed over
	// GET /campaigns and from the probe campaign's /stats at end of load,
	// and summed over every campaign's /stats after kill -9 and restart.
	campaignsAnswers, statsAnswers, recoveredAnswers int64
	// recovered says the episode went through the restart and /results;
	// without it only the end-of-load counts are judged.
	recovered bool
	// accuracy is the share of the probe campaign's non-golden tasks whose
	// /results choice equals the generated truth, mvAccuracy the same for
	// a majority vote over the answers the harness sent, scored how many
	// tasks both were scored on.
	accuracy, mvAccuracy float64
	scored               int
}

// mvSlack is how far /results accuracy may trail a majority vote over the
// same answers where spec.minAccuracy is set. Over 40 seeds of lifecycle's
// 580 scored tasks the lead is 0.013 ± 0.009 (and the accuracy 0.970 ±
// 0.009), so the floors sit five standard deviations out: a run must never
// fail on a seed.
const mvSlack = 0.03

// check returns every failed output check; empty means the run's outputs
// are correct.
func (o observed) check() []string {
	problems := append([]string(nil), o.violations...)
	if o.campaignsAnswers != o.ackedTotal {
		problems = append(problems, fmt.Sprintf("GET /campaigns counts %d answers at end of load, harness acked %d", o.campaignsAnswers, o.ackedTotal))
	}
	if o.statsAnswers != o.ackedProbe {
		problems = append(problems, fmt.Sprintf("/stats.answers = %d at end of load, harness acked %d", o.statsAnswers, o.ackedProbe))
	}
	if !o.recovered {
		return problems
	}
	if o.recoveredAnswers != o.ackedTotal {
		problems = append(problems, fmt.Sprintf("/stats.answers sum to %d after kill -9 and restart, harness acked %d: an acknowledged answer was lost or invented", o.recoveredAnswers, o.ackedTotal))
	}
	if o.scored == 0 {
		problems = append(problems, "/results scored no task")
	}
	if floor := o.spec.minAccuracy; floor > 0 {
		if o.accuracy < floor {
			problems = append(problems, fmt.Sprintf("accuracy %.4f over %d tasks is below %.2f", o.accuracy, o.scored, floor))
		}
		if d := o.accuracy - o.mvAccuracy; d < -mvSlack {
			problems = append(problems, fmt.Sprintf("accuracy %.4f trails majority vote %.4f by more than %.2f", o.accuracy, o.mvAccuracy, mvSlack))
		}
	}
	return problems
}

// result is one entry of GET /results.
type result struct {
	TaskID int
	Choice int
}

// score compares the server's results and a majority vote over the sent
// answers with the generated truths, over the campaign's non-golden tasks.
// A vote tie goes to the lowest choice; a task nobody answered votes 0.
func score(results []result, tasks []genTask, golden map[int]bool, sent []sentAnswer, campaign int) (accuracy, mvAccuracy float64, scored int) {
	votes := make([][]int, len(tasks))
	for _, a := range sent {
		if a.campaign != campaign {
			continue
		}
		if votes[a.task] == nil {
			votes[a.task] = make([]int, len(tasks[a.task].Choices))
		}
		votes[a.task][a.choice]++
	}
	right, mvRight := 0, 0
	for _, r := range results {
		if r.TaskID < 0 || r.TaskID >= len(tasks) || golden[r.TaskID] {
			continue
		}
		scored++
		truth := tasks[r.TaskID].Truth
		if r.Choice == truth {
			right++
		}
		mv := 0
		for c, n := range votes[r.TaskID] {
			if n > votes[r.TaskID][mv] {
				mv = c
			}
		}
		if mv == truth {
			mvRight++
		}
	}
	if scored == 0 {
		return 0, 0, 0
	}
	return float64(right) / float64(scored), float64(mvRight) / float64(scored), scored
}
