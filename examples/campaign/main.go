// Campaign: a larger end-to-end run that exercises every public API —
// persistent worker statistics included.
//
// The example runs TWO sequential campaigns, named apart, sharing one
// worker-statistics store (a temp log directory). In campaign 1 the workers are profiled on
// golden tasks; in campaign 2 the same workers return, skip golden
// profiling entirely (their qualities were persisted per the paper's
// Theorem 1 maintenance rule), and go straight to high-benefit tasks.
//
//	go run ./examples/campaign
package main

import (
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
)

import "docs"

// simWorker answers sports questions well and food questions at chance.
type simWorker struct{ name string }

func (w simWorker) answer(t docs.Task, truth int) int {
	if containsAny(t.Text, "NBA", "championships", "Warriors", "Lakers") {
		return truth // sports expert
	}
	h := fnv.New32a()
	h.Write([]byte(w.name + t.Text))
	if h.Sum32()%3 == 0 { // wrong a third of the time elsewhere
		return 1 - truth
	}
	return truth
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
		}
	}
	return false
}

func makeTasks(campaign int) ([]docs.Task, map[int]int) {
	players := []string{"Michael Jordan", "Kobe Bryant", "LeBron James", "Stephen Curry",
		"Tim Duncan", "Magic Johnson", "Larry Bird", "Kevin Durant"}
	foods := []string{"Chocolate", "Honey", "Pizza", "Avocado", "Banana", "Cheese", "Bacon", "Tofu"}
	var tasks []docs.Task
	truths := map[int]int{}
	add := func(text string, truth int, golden bool) {
		gt := docs.NoTruth
		if golden {
			gt = truth
		}
		tasks = append(tasks, docs.Task{
			ID: len(tasks), Text: text,
			Choices: []string{"first", "second"}, GoldenTruth: gt,
		})
		truths[len(tasks)-1] = truth
	}
	for i := 0; i+1 < len(players); i++ {
		a, b := players[i], players[(i+campaign)%len(players)]
		if a == b {
			continue
		}
		add(fmt.Sprintf("Who wins more NBA championships, %s or %s?", a, b), i%2, i < 2)
	}
	for i := 0; i+1 < len(foods); i++ {
		a, b := foods[i], foods[(i+campaign)%len(foods)]
		if a == b {
			continue
		}
		add(fmt.Sprintf("Which food contains more calories, %s or %s?", a, b), (i+1)%2, i < 2)
	}
	return tasks, truths
}

func runCampaign(n int, storePath string, workers []simWorker) {
	tasks, truths := makeTasks(n)
	// A campaign's name scopes the sessions its Results leaves in the
	// store, so each requester's campaign gets its own.
	reg, err := docs.OpenRegistry(docs.Config{
		GoldenCount:    4,
		HITSize:        3,
		AnswersPerTask: 3,
		StorePath:      storePath,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close() // releases the store's log for the next campaign
	sys, err := reg.Create(fmt.Sprintf("campaign-%d", n))
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Publish(tasks); err != nil {
		log.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range sys.GoldenTaskIDs() {
		goldenSet[id] = true
	}
	goldenServed := map[string]int{}
	for round := 0; round < 40; round++ {
		w := workers[round%len(workers)]
		batch, err := sys.Request(w.name, 3)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range batch {
			if goldenSet[t.ID] {
				goldenServed[w.name]++
			}
			if err := sys.Submit(w.name, t.ID, w.answer(t, truths[t.ID])); err != nil {
				log.Fatal(err)
			}
		}
	}
	results, err := sys.Results()
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for _, r := range results {
		if r.Choice == truths[r.TaskID] {
			correct++
		}
	}
	fmt.Printf("campaign %d: %d/%d correct; golden tasks served per worker: %v\n",
		n, correct, len(results), goldenServed)
}

func main() {
	dir, err := os.MkdirTemp("", "docs-campaign-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "store")

	workers := []simWorker{{"ana"}, {"ben"}, {"cho"}, {"dee"}}
	runCampaign(1, storePath, workers)
	// Same workers return: profiled qualities load from the store, so the
	// golden counter should stay at zero in campaign 2.
	runCampaign(2, storePath, workers)
}
