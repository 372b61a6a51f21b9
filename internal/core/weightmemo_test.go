package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/treenn"
)

// Linear.Infer keeps whether a weight is all finite on the weight
// (nn.Param.Fin) instead of scanning it before every sparse product. These
// tests hold the memo to the tape, which scans on every call.

// memoModel returns a fresh model: its biases are zero, so an all-zero
// feature vector leaves every layer's input all zero and every product of
// the tape-free path sparse.
func memoModel() *treenn.TreeModel {
	m := treenn.NewTreeModel(treenn.Config{InputDim: 16, Hidden: 8, OutWidth: 8, Cell: treenn.CellSRU, Seed: 5})
	m.LogMax = 13.5
	return m
}

// checkInferMatchesTape requires InferNode's encoding and representation of
// a one-leaf plan over feat to equal the tape Forward's bit for bit, and
// reports whether any of them is NaN.
func checkInferMatchesTape(t *testing.T, label string, m *treenn.TreeModel, feat tensor.Vec) (nan bool) {
	t.Helper()
	leaf := &plan.Node{Op: plan.SeqScan}
	outs := m.Forward(autodiff.NewTape(), leaf, func(*plan.Node) tensor.Vec { return feat }, nil)
	c := tensor.NewVec(m.Cfg.Hidden)
	h := m.InferNode(tensor.NewArena(0), feat, nil, nil, c)
	for _, pair := range [][2]tensor.Vec{{c, outs[leaf].C.Data}, {h, outs[leaf].H.Data}} {
		for i, got := range pair[0] {
			want := pair[1][i]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: InferNode %v at %d, tape %v", label, got, i, want)
			}
			nan = nan || math.IsNaN(got)
		}
	}
	return nan
}

// TestWeightMemoNeverStale runs the tape-free path once, so every weight's
// memo reads finite, then makes one weight NaN through each production
// writer of Param.Val — an Adam step with a NaN gradient, a snapshot load
// carrying NaN, and a copy of a poisoned model's weights — in a column the
// sparse products skip. The NaN must reach the output exactly as it
// reaches the tape's, also that of a replica sharing the stepped weights.
func TestWeightMemoNeverStale(t *testing.T) {
	feat := tensor.NewVec(16)
	// cell.wx's input is the embedding of an all-zero feature vector, all
	// zero, so the sparse product skips every column, column 3 included.
	const poisoned = "cell.wx.W"
	poison := func(v tensor.Vec) { v[2*8+3] = math.NaN() }

	t.Run("adam", func(t *testing.T) {
		m := memoModel()
		if checkInferMatchesTape(t, "before", m, feat) {
			t.Fatal("fresh model infers NaN")
		}
		poison(m.Params.Get(poisoned).Grad)
		nn.NewAdam(0.01).Step(m.Params)
		if !checkInferMatchesTape(t, "after Adam.Step", m, feat) {
			t.Fatal("NaN gradient did not reach the output")
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		src := memoModel()
		poison(src.Params.Get(poisoned).Val)
		var buf bytes.Buffer
		if err := src.Params.EncodeGob(gob.NewEncoder(&buf)); err != nil {
			t.Fatal(err)
		}
		m := memoModel()
		if checkInferMatchesTape(t, "before", m, feat) {
			t.Fatal("fresh model infers NaN")
		}
		if err := m.Params.DecodeGob(gob.NewDecoder(&buf)); err != nil {
			t.Fatal(err)
		}
		if !checkInferMatchesTape(t, "after Load", m, feat) {
			t.Fatal("NaN weight in the snapshot did not reach the output")
		}
	})

	t.Run("clone", func(t *testing.T) {
		src := memoModel()
		if checkInferMatchesTape(t, "before", src, feat) {
			t.Fatal("fresh model infers NaN")
		}
		poison(src.Params.Get(poisoned).Val)
		if !checkInferMatchesTape(t, "after cloneModel", cloneModel(src), feat) {
			t.Fatal("NaN weight of the source did not reach the clone's output")
		}
	})

	// A replica aliases the master's weights, which the master's writers
	// reset only the master's memo for.
	t.Run("replica", func(t *testing.T) {
		m := memoModel()
		rep := m.Replica()
		if checkInferMatchesTape(t, "before", rep, feat) {
			t.Fatal("fresh replica infers NaN")
		}
		poison(m.Params.Get(poisoned).Grad)
		nn.NewAdam(0.01).Step(m.Params)
		if !checkInferMatchesTape(t, "replica after the master's Adam.Step", rep, feat) {
			t.Fatal("NaN gradient on the master did not reach the replica's output")
		}
	})
}

// TestWeightMemoConcurrentFirstInfer has eight goroutines make the first
// tape-free call on one shared model at once, so they race to fill the
// memos; under -race this checks that filling them is synchronized. Every
// goroutine must still match the tape.
func TestWeightMemoConcurrentFirstInfer(t *testing.T) {
	m := randomModel(40, 12, treenn.CellSRU, 9)
	feat := tensor.NewVec(40)
	feat[3], feat[17] = 1, 0.5 // sparse: the embedding's product skips 38 columns
	leaf := &plan.Node{Op: plan.SeqScan}
	want := m.Forward(autodiff.NewTape(), leaf, func(*plan.Node) tensor.Vec { return feat }, nil)[leaf].H.Data

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h := m.InferNode(tensor.NewArena(0), feat, nil, nil, tensor.NewVec(12))
			for i := range h {
				if math.Float64bits(h[i]) != math.Float64bits(want[i]) {
					errs <- "InferNode differs from the tape"
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
