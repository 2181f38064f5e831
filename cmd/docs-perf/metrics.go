package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metricKind says where a metric is reported. endToEnd and perLayer
// metrics are the ones BENCHMARK.json lists — every workload produces
// every one of them — and go into the result line (-trace 0 and -trace 1
// respectively). extra metrics exist on some workloads only (a metric a
// workload does not produce is omitted there, never reported as 0); they
// appear in the printed table alone.
type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
	extra
)

type metric struct {
	name, unit string
	value      float64
	kind       metricKind
}

// report is one workload run's outcome.
type report struct {
	workload          string
	sha256            string
	metrics           []metric
	attempted, failed int
	problems          []string // failed output checks
}

func (r *report) add(kind metricKind, name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, kind: kind})
}

// value returns the named metric's value, 0 if the run did not produce it.
func (r *report) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes the human-readable table: every metric by name with its
// unit, then the output-check verdict.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  workload_sha256=%s\n", r.workload, r.sha256)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-14s %-38s %16.6g %s\n", r.workload, m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-14s %-38s %16d of %d\n", r.workload, "failed", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-14s CHECK FAILED: %s\n", r.workload, p)
	}
}

// resultLine is the machine-readable last line: the listed end-to-end
// metrics of an untraced run, or the listed per-layer metrics of a traced
// one.
func (r *report) resultLine(traced bool) string {
	want := endToEnd
	if traced {
		want = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		if m.kind == want {
			ms[m.name] = val{m.value, m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // only non-finite floats can fail; a bug in a metric
	}
	return string(out)
}

// medianReport folds repeated runs of one workload into one report whose
// every metric is the median of the runs that produced it.
func medianReport(runs []*report) *report {
	out := &report{workload: runs[0].workload, sha256: runs[0].sha256}
	values := map[string][]float64{}
	for _, r := range runs {
		out.attempted += r.attempted
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
		for _, m := range r.metrics {
			if _, seen := values[m.name]; !seen {
				out.metrics = append(out.metrics, m)
			}
			values[m.name] = append(values[m.name], m.value)
		}
	}
	for i := range out.metrics {
		out.metrics[i].value = median(values[out.metrics[i].name])
	}
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileMs reads the q'th quantile of latency samples, in milliseconds.
func quantileMs(samples []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1)+0.5)]) / float64(time.Millisecond)
}
