package snapshot

import (
	"encoding/binary"
	"math"
	"testing"

	"docs/internal/wal"
)

// encodeV3 renders a state in the layout builds before DOCSSNP4 wrote: the
// same sections, but every task state with all m rows of M̂ (the rows
// outside the support are filled with the prior's 1s here — what they held
// was never read) and every statistics vector in full. supp[i] lists the
// domains TaskStates[i]'s rows stand for. Production can no longer write or
// read this; the copy exists to weigh the new layout against
// (TestSnapshotBytesPerAnsweredTask).
func encodeV3(t *testing.T, st *State, supp [][]int) []byte {
	t.Helper()
	var b []byte
	uv := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	floats := func(fs []float64) {
		for _, f := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	str := func(s string) { uv(len(s)); b = append(b, s...) }
	ints := func(vs []int) {
		uv(len(vs))
		for _, v := range vs {
			uv(v)
		}
	}
	dense := func(sf wal.SparseFloats, base float64) {
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
			dense(w.Q, st.BaseQ)
			dense(w.U, 0)
		}
	}
	uv(int(st.Seq))
	uv(int(st.PublishSeq))
	uv(int(st.Answers))
	ints(st.GoldenIDs)
	uv(len(st.TaskStates))
	for i, ts := range st.TaskStates {
		uv(ts.ID)
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
	uv(len(st.Serving))
	for _, ws := range st.Serving {
		str(ws.ID)
		if ws.Profiled {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		ints(ws.GoldenTasks)
		ints(ws.GoldenChoices)
		if ws.Anchored {
			dense(ws.AnchorQ, st.BaseQ)
			dense(ws.AnchorU, 0)
		} else {
			uv(0)
			uv(0)
		}
	}
	stats(st.Store)
	stats(st.StoreProfiles)
	b, err := wal.AppendColumns(b, &st.Log)
	if err != nil {
		t.Fatal(err)
	}
	return wal.EncodeFrame([]byte("DOCSSNP3"), b)
}

// TestSnapshotBytesPerAnsweredTask pins what an answered task and a worker
// cost a snapshot: 100 two-choice tasks over 26 domains, alternately of
// support 1 and 2, one answer each from a worker who has therefore touched 3
// domains and carries a pinned anchor. The same state in the previous
// layout is logged beside it; docs/architecture.md quotes the ratio.
func TestSnapshotBytesPerAnsweredTask(t *testing.T) {
	const m, n = 26, 100
	st := &State{Seq: n + 2, PublishSeq: 1, Answers: n, M: m, BaseQ: 0.7}
	supp := make([][]int, n)
	q, u := make([]float64, m), make([]float64, m)
	for k := range q {
		q[k] = 0.7
	}
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
	st.Log = lg.Columns
	st.Workers = []WorkerStats{{ID: "worker-07", Q: sparse(0.7, q...), U: sparse(0, u...)}}
	st.Serving = []WorkerServing{{ID: "worker-07", Profiled: true, Anchored: true,
		AnchorQ: sparse(0.7, q...), AnchorU: sparse(0, u...)}}

	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	old := encodeV3(t, st, supp)
	rows := 0
	for _, s := range supp {
		rows += len(s)
	}
	t.Logf("%d answered tasks (mean support %.2f) and one worker with %d touched domains: %d B = %.1f B a task; %d B = %.1f a task in the previous layout (×%.3f)",
		n, float64(rows)/n, len(st.Workers[0].Q.K), len(data), float64(len(data))/n, len(old), float64(len(old))/n, float64(len(data))/float64(len(old)))
	if want := 4783; len(data) != want {
		t.Errorf("the state encodes to %d bytes, pinned %d", len(data), want)
	}
	if len(st.Workers[0].Q.K) != 3 {
		t.Fatalf("the worker touched %d domains, want 3", len(st.Workers[0].Q.K))
	}
	back, err := Decode(data)
	if err != nil || len(back.TaskStates) != n {
		t.Fatalf("the pinned image does not decode: %v", err)
	}
}
