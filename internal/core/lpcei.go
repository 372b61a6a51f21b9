package core

import (
	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/treenn"
)

// LPCEIConfig assembles the full LPCE-I training pipeline: a large teacher
// is trained with the node-wise loss, then a small student is compressed
// from it via knowledge distillation (paper §4.4, Eq. 4–5).
type LPCEIConfig struct {
	Teacher TrainConfig
	Student TrainConfig
	// Alpha balances the student's own q-error against matching the
	// teacher's logit in the prediction loss (paper default 0.5).
	Alpha float64
	// HintEpochs and PredictEpochs control the two distillation phases.
	HintEpochs    int
	PredictEpochs int
}

// Defaults fills zero fields. The teacher is ~4x wider than the student,
// giving the >10x parameter-count compression the paper reports.
func (c LPCEIConfig) Defaults() LPCEIConfig {
	c.Teacher = c.Teacher.Defaults()
	if c.Student.Hidden == 0 {
		c.Student.Hidden = c.Teacher.Hidden / 4
		if c.Student.Hidden < 8 {
			c.Student.Hidden = 8
		}
	}
	if c.Student.OutWidth == 0 {
		c.Student.OutWidth = c.Teacher.OutWidth / 4
		if c.Student.OutWidth < 8 {
			c.Student.OutWidth = 8
		}
	}
	c.Student = c.Student.Defaults()
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.HintEpochs == 0 {
		c.HintEpochs = c.Student.Epochs
	}
	if c.PredictEpochs == 0 {
		c.PredictEpochs = c.Student.Epochs
	}
	return c
}

// LPCEI bundles the distilled student model (the deployed LPCE-I) with its
// teacher for inspection by the ablation experiments.
type LPCEI struct {
	Model   *treenn.TreeModel // the compressed student
	Teacher *treenn.TreeModel
	Enc     *encode.Encoder
}

// TrainLPCEI runs the full pipeline: teacher training, hint distillation,
// prediction-loss calibration.
func TrainLPCEI(cfg LPCEIConfig, enc *encode.Encoder, samples []Sample, logMax float64) *LPCEI {
	cfg = cfg.Defaults()
	teacher := TrainTreeModel(cfg.Teacher, enc, samples, logMax, nil)
	student := Distill(cfg, enc, teacher, samples)
	return &LPCEI{Model: student, Teacher: teacher, Enc: enc}
}

// Distill trains a small student against a trained teacher: first the hint
// loss (Eq. 4) matches the student's embed output and node representation
// to the teacher's through single-layer adapters, then the prediction loss
// (Eq. 5) calibrates the student's logits.
func Distill(cfg LPCEIConfig, enc *encode.Encoder, teacher *treenn.TreeModel, samples []Sample) *treenn.TreeModel {
	cfg = cfg.Defaults()
	student := treenn.NewTreeModel(treenn.Config{
		InputDim: enc.Dim(),
		Hidden:   cfg.Student.Hidden,
		OutWidth: cfg.Student.OutWidth,
		Cell:     cfg.Student.Cell,
		Seed:     cfg.Student.Seed + 17,
	})
	student.LogMax = teacher.LogMax
	feat := func(n *plan.Node) tensor.Vec { return enc.EncodeNode(n) }

	// Adapters p_e, p_s mapping student widths to teacher widths (Eq. 4).
	aps := nn.NewParams()
	rng := tensor.NewRNG(cfg.Student.Seed + 23)
	nn.NewLinear(aps, "pe", cfg.Student.Hidden, cfg.Teacher.Hidden, rng)
	nn.NewLinear(aps, "ps", cfg.Student.Hidden, cfg.Teacher.Hidden, rng)

	// teacherOuts runs the teacher without gradients and returns detached
	// copies of the per-node tensors the student matches. The teacher's
	// weights are only read, so workers share it safely.
	type tOut struct {
		x, h  tensor.Vec
		logit float64
	}
	teacherOuts := func(s Sample) map[*plan.Node]tOut {
		t := autodiff.NewTape()
		outs := teacher.Forward(t, s.Plan, feat, nil)
		m := make(map[*plan.Node]tOut, len(outs))
		for n, o := range outs {
			m[n] = tOut{x: o.X.Data.Clone(), h: o.H.Data.Clone(), logit: o.Logit.Scalar()}
		}
		return m
	}

	// Phase 1: hint loss.
	hint := cfg.Student
	hint.Epochs = cfg.HintEpochs
	Minibatch(hint, streamDistillHint, len(samples), []*nn.Params{student.Params, aps},
		func() (func(int, float64), []*nn.Params) {
			rep := student.Replica()
			apsRep := aps.ShareWeights()
			pe := &nn.Linear{W: apsRep.Get("pe.W"), B: apsRep.Get("pe.b")}
			psAdapter := &nn.Linear{W: apsRep.Get("ps.W"), B: apsRep.Get("ps.b")}
			run := func(si int, weight float64) {
				s := samples[si]
				tOuts := teacherOuts(s)
				t := autodiff.NewTape()
				sOuts := rep.Forward(t, s.Plan, feat, nil)
				// Iterate nodes in post-order, not map order: the tape
				// records ops in loop order and backward accumulates in tape
				// order, so a randomized map walk would make the float
				// reduction order — and hence the weights — nondeterministic.
				for _, n := range s.Plan.Nodes() {
					so := sOuts[n]
					to, ok := tOuts[n]
					if so == nil || !ok {
						continue
					}
					lx := t.AbsDiffSum(t.Const(to.x), pe.Apply(t, so.X))
					lh := t.AbsDiffSum(t.Const(to.h), psAdapter.Apply(t, so.H))
					lx.Grad[0] = weight
					lh.Grad[0] = weight
				}
				t.BackwardFrom()
			}
			return run, []*nn.Params{rep.Params, apsRep}
		}, nil)

	// Phase 2: prediction loss αq + (1−α)|logit_t − logit_s| (Eq. 5).
	predict := cfg.Student
	predict.Epochs = cfg.PredictEpochs
	Minibatch(predict, streamDistillPredict, len(samples), []*nn.Params{student.Params},
		func() (func(int, float64), []*nn.Params) {
			rep := student.Replica()
			run := func(si int, weight float64) {
				s := samples[si]
				tOuts := teacherOuts(s)
				t := autodiff.NewTape()
				sOuts := rep.Forward(t, s.Plan, feat, nil)
				// Post-order for the same reason as the hint phase: backward
				// reduction order must not depend on map iteration.
				for _, n := range s.Plan.Nodes() {
					so := sOuts[n]
					to, ok := tOuts[n]
					if so == nil || !ok || n.TrueCard < 0 {
						continue
					}
					qloss := nn.QErrorLoss(t, so.Pred, n.TrueCard, rep.LogMax)
					qloss.Grad[0] = cfg.Alpha * weight
					ldiff := t.AbsDiffSum(t.Const(tensor.Vec{to.logit}), so.Logit)
					ldiff.Grad[0] = (1 - cfg.Alpha) * weight
				}
				t.BackwardFrom()
			}
			return run, []*nn.Params{rep.Params}
		}, nil)
	return student
}
