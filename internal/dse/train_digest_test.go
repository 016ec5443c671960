package dse

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"graphdse/internal/memsim"
)

// TestTable1Figure3Pinned fixes every bit of Table I (each cell's MSE and
// R²) and of the Figure 3 series (test truth and each model's predictions)
// on a small fixed workflow: the 256-vertex BFS trace swept over 104
// points and trained with the four default models. The digests were
// captured before the SVR and CART inner loops were rewritten; they change
// only when a model's arithmetic is changed on purpose.
func TestTable1Figure3Pinned(t *testing.T) {
	space := SpaceParams{
		CPUFreqsMHz:  []float64{2000, 6500},
		CtrlFreqsMHz: []float64{400, 1250},
		Channels:     []int{2, 4},
		Fractions:    []float64{0.25, 0.5, 0.75},
	}
	records, err := SweepPreparedContext(context.Background(), smallTrace(t), EnumerateSpace(space), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	models := DefaultModels(1)
	table, fig3, err := TrainAndEvaluateContext(context.Background(), ds, models, 0.2, 7, nil)
	if err != nil {
		t.Fatal(err)
	}

	var b [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	th := sha256.New()
	for _, p := range table {
		th.Write([]byte(p.Metric + "/" + p.Model + "\x00"))
		put(th, p.MSE, p.R2)
	}
	fh := sha256.New()
	for _, metric := range memsim.MetricNames {
		s := fig3[metric]
		put(fh, s.Truth...)
		for _, m := range models {
			put(fh, s.Pred[m.Name]...)
		}
	}
	const (
		wantRows  = 24
		wantTable = "4152a980ce5ce4a4c3389a2bcba9ec961951d697abe30ed450c4263acbc19800"
		wantFig3  = "07f4805b17a84477b0a7af602f2befdd8a3e08ef0e7967a97d3068d022e15e7a"
	)
	if len(table) != wantRows {
		t.Fatalf("table1 rows = %d, want %d", len(table), wantRows)
	}
	if got := hex.EncodeToString(th.Sum(nil)); got != wantTable {
		t.Errorf("Table I sha256 = %s, want %s", got, wantTable)
	}
	if got := hex.EncodeToString(fh.Sum(nil)); got != wantFig3 {
		t.Errorf("Figure 3 sha256 = %s, want %s", got, wantFig3)
	}
}
