package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"docs/internal/wal"
)

// previous holds what the layouts before DOCSSNP5 carried beside the
// engine's numbers: the publish record's sequence, the answer count, one
// serving entry per worker (profiled, anchored at the given statistics, no
// golden answer) and the column-packed answer log.
type previous struct {
	publishSeq, answers int
	anchored            []WorkerStats
	log                 wal.Columns
}

// encodePrevious renders a state in the layout builds before DOCSSNP5
// wrote. Version 4 is the sparse layout with the sections above; version 3
// holds the same sections with every task state at all m rows of M̂ (the
// rows outside the support are filled with the prior's 1s here — what they
// held was never read) and every statistics vector in full. supp[i] lists
// the domains TaskStates[i]'s rows stand for. Production can no longer
// write or read either; the copy exists to weigh the current layout against
// and to show Decode refusing both.
func encodePrevious(t *testing.T, version int, st *State, old previous, supp [][]int) []byte {
	t.Helper()
	var b []byte
	uv := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	floats := func(fs []float64) {
		for _, f := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	str := func(s string) { uv(len(s)); b = append(b, s...) }
	vector := func(sf wal.SparseFloats, base float64) {
		if version == 4 {
			var err error
			if b, err = wal.AppendSparseFloats(b, sf, st.M, base); err != nil {
				t.Fatal(err)
			}
			return
		}
		v := make([]float64, st.M)
		for k := range v {
			v[k] = base
		}
		if err := sf.Scatter(v); err != nil {
			t.Fatal(err)
		}
		uv(len(v))
		floats(v)
	}
	stats := func(ws []WorkerStats) {
		uv(len(ws))
		for _, w := range ws {
			str(w.ID)
			vector(w.Q, st.BaseQ)
			vector(w.U, 0)
		}
	}
	uv(int(st.Seq))
	uv(old.publishSeq)
	uv(old.answers)
	if version == 4 {
		uv(st.M)
		floats([]float64{st.BaseQ})
	}
	uv(0) // golden IDs
	uv(len(st.TaskStates))
	for i, ts := range st.TaskStates {
		uv(ts.ID)
		if version == 4 {
			uv(len(ts.MHat))
			uv(len(ts.S))
			for _, row := range ts.MHat {
				floats(row)
			}
			floats(ts.S)
			continue
		}
		uv(st.M)
		uv(len(ts.S))
		x := 0
		for k := 0; k < st.M; k++ {
			if x < len(supp[i]) && supp[i][x] == k {
				floats(ts.MHat[x])
				x++
				continue
			}
			for range ts.S {
				floats([]float64{1})
			}
		}
		floats(ts.S)
	}
	stats(st.Workers)
	uv(len(old.anchored))
	for _, a := range old.anchored {
		str(a.ID)
		b = append(b, 1|2) // profiled, anchored
		uv(0)              // golden tasks
		uv(0)              // golden choices
		vector(a.Q, st.BaseQ)
		vector(a.U, 0)
	}
	stats(nil) // store
	stats(nil) // store profiles
	b, err := wal.AppendColumns(b, &old.log)
	if err != nil {
		t.Fatal(err)
	}
	return wal.EncodeFrame([]byte(map[int]string{3: "DOCSSNP3", 4: "DOCSSNP4"}[version]), b)
}

// TestSnapshotBytesPerAnsweredTask pins what an answered task and a worker
// cost a snapshot: 100 two-choice tasks over 26 domains, alternately of
// support 1 and 2, one answer each from a worker who has therefore touched
// 3 domains. The same campaign in the two previous layouts — which also
// carried its answer log and the worker's anchor — is logged beside it,
// and Decode refuses both; docs/architecture.md quotes the ratios.
func TestSnapshotBytesPerAnsweredTask(t *testing.T) {
	const m, n = 26, 100
	st := &State{Seq: n + 2, M: m, BaseQ: 0.7}
	supp := make([][]int, n)
	q, u := make([]float64, m), make([]float64, m)
	for k := range q {
		q[k] = 0.7
	}
	old := previous{publishSeq: 1, answers: n}
	var lg wal.ColumnBuilder
	for i := 0; i < n; i++ {
		supp[i] = []int{3}
		if i%2 == 1 {
			supp[i] = []int{3, 11 + 6*(i%4/2)} // 3 and 11, or 3 and 17
		}
		ts := TaskState{ID: i, S: []float64{0.25, 0.75}}
		for _, k := range supp[i] {
			ts.MHat = append(ts.MHat, []float64{0.125, 1})
			q[k], u[k] = 0.8125, u[k]+0.5
		}
		st.TaskStates = append(st.TaskStates, ts)
		lg.Add("worker-07", i, 1)
	}
	st.Workers = []WorkerStats{{ID: "worker-07", Q: sparse(0.7, q...), U: sparse(0, u...)}}
	old.log, old.anchored = lg.Columns, st.Workers

	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	v4, v3 := encodePrevious(t, 4, st, old, supp), encodePrevious(t, 3, st, old, supp)
	rows := 0
	for _, s := range supp {
		rows += len(s)
	}
	t.Logf("%d answered tasks (mean support %.2f) and one worker with %d touched domains: %d B = %.1f B a task; %d B = %.1f in DOCSSNP4 (×%.3f); %d B = %.1f in DOCSSNP3 (×%.3f)",
		n, float64(rows)/n, len(st.Workers[0].Q.K), len(data), float64(len(data))/n,
		len(v4), float64(len(v4))/n, float64(len(data))/float64(len(v4)),
		len(v3), float64(len(v3))/n, float64(len(data))/float64(len(v3)))
	if want := 4394; len(data) != want {
		t.Errorf("the state encodes to %d bytes, pinned %d", len(data), want)
	}
	if len(st.Workers[0].Q.K) != 3 {
		t.Fatalf("the worker touched %d domains, want 3", len(st.Workers[0].Q.K))
	}
	back, err := Decode(data)
	if err != nil || len(back.TaskStates) != n {
		t.Fatalf("the pinned image does not decode: %v", err)
	}
	for name, image := range map[string][]byte{"DOCSSNP4": v4, "DOCSSNP3": v3} {
		if st, err := Decode(image); st != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s image: Decode = %v, %v; want it refused as corrupt", name, st, err)
		}
	}
}
