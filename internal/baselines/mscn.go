// Package baselines implements the query-driven learned estimators the
// paper compares against: MSCN [15] (multi-set convolutional network),
// TLSTM [30] (tree-LSTM cost estimator), and Flow-Loss [22] (cost-weighted
// training). All share the repository's autodiff/nn substrate and plug into
// the optimizer through cardest.Estimator.
package baselines

import (
	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/tensor"
)

// MSCNConfig controls the MSCN architecture and training.
type MSCNConfig struct {
	Hidden int
	Epochs int
	Batch  int
	LR     float64
	Seed   int64
}

// Shuffle streams of the baselines' core.Minibatch runs; values are
// arbitrary but distinct per training phase.
const (
	streamMSCN = iota + 101
	streamFlowLoss
)

// Defaults fills zero fields.
func (c MSCNConfig) Defaults() MSCNConfig {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Batch == 0 {
		c.Batch = 50
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	return c
}

// MSCN is the multi-set convolutional network: three per-element MLPs
// (tables, joins, predicates) whose outputs are average-pooled per set,
// concatenated, and mapped to a cardinality by an output MLP. Unlike the
// tree models it ignores plan structure, the deficiency the paper
// highlights.
type MSCN struct {
	Params  *nn.Params
	schema  *catalog.Schema
	tables  *nn.MLP
	joins   *nn.MLP
	preds   *nn.MLP
	out     *nn.MLP
	hidden  int
	numCols int
	LogMax  float64
}

// replica returns an MSCN sharing this model's weights with private
// gradient buffers, for data-parallel training workers.
func (m *MSCN) replica() *MSCN {
	ps := m.Params.ShareWeights()
	return &MSCN{
		Params: ps, schema: m.schema, hidden: m.hidden, numCols: m.numCols,
		LogMax: m.LogMax,
		tables: m.tables.ShareWeights(ps),
		joins:  m.joins.ShareWeights(ps),
		preds:  m.preds.ShareWeights(ps),
		out:    m.out.ShareWeights(ps),
	}
}

// table element: one-hot over tables; join element: two-hot over columns;
// predicate element: column one-hot + op one-hot + operand.
func (m *MSCN) tableDim() int { return len(m.schema.Tables) }
func (m *MSCN) joinDim() int  { return m.numCols }
func (m *MSCN) predDim() int  { return m.numCols + query.NumOps + 1 }

// NewMSCN builds an untrained MSCN for the schema.
func NewMSCN(cfg MSCNConfig, schema *catalog.Schema) *MSCN {
	cfg = cfg.Defaults()
	ps := nn.NewParams()
	rng := tensor.NewRNG(cfg.Seed)
	m := &MSCN{Params: ps, schema: schema, hidden: cfg.Hidden, numCols: schema.NumColumns()}
	m.tables = nn.NewMLP(ps, "tables", []int{m.tableDim(), cfg.Hidden, cfg.Hidden}, nn.ActReLU, nn.ActReLU, rng)
	m.joins = nn.NewMLP(ps, "joins", []int{m.joinDim(), cfg.Hidden, cfg.Hidden}, nn.ActReLU, nn.ActReLU, rng)
	m.preds = nn.NewMLP(ps, "preds", []int{m.predDim(), cfg.Hidden, cfg.Hidden}, nn.ActReLU, nn.ActReLU, rng)
	m.out = nn.NewMLP(ps, "out", []int{3 * cfg.Hidden, cfg.Hidden, 1}, nn.ActReLU, nn.ActSigmoid, rng)
	return m
}

// forward runs the set model for a table subset of a query.
func (m *MSCN) forward(t *autodiff.Tape, q *query.Query, mask query.BitSet) *autodiff.Node {
	var tableNodes, joinNodes, predNodes []*autodiff.Node
	for _, i := range mask.Indices() {
		tab := q.Tables[i]
		v := tensor.NewVec(m.tableDim())
		v[tab.ID] = 1
		tableNodes = append(tableNodes, m.tables.Apply(t, t.Input(v)))
		for _, p := range q.PredsOn(tab) {
			predNodes = append(predNodes, m.preds.Apply(t, t.Input(m.encodePred(p))))
		}
	}
	for _, j := range q.JoinsWithin(mask) {
		v := tensor.NewVec(m.joinDim())
		v[j.Left.GlobalID] = 1
		v[j.Right.GlobalID] = 1
		joinNodes = append(joinNodes, m.joins.Apply(t, t.Input(v)))
	}
	pool := func(nodes []*autodiff.Node) *autodiff.Node {
		if len(nodes) == 0 {
			return t.NewNode(m.hidden)
		}
		return t.Mean(nodes)
	}
	cat := t.Concat(pool(tableNodes), pool(joinNodes), pool(predNodes))
	return m.out.Apply(t, cat)
}

func (m *MSCN) encodePred(p query.Predicate) tensor.Vec {
	v := tensor.NewVec(m.predDim())
	v[p.Col.GlobalID] = 1
	v[m.numCols+int(p.Op)] = 1
	span := float64(p.Col.Max - p.Col.Min)
	operand := 0.5
	if span > 0 {
		val := float64(p.Operand)
		if p.Op == query.OpIn && len(p.InSet) > 0 {
			var s float64
			for _, x := range p.InSet {
				s += float64(x)
			}
			val = s / float64(len(p.InSet))
		}
		operand = (val - float64(p.Col.Min)) / span
		if operand < 0 {
			operand = 0
		}
		if operand > 1 {
			operand = 1
		}
	}
	v[m.predDim()-1] = operand
	return v
}

// TrainMSCN fits the model on collected samples with the query-wise q-error
// loss over every plan node's subset (MSCN's published training uses
// queries of mixed sizes; the plan nodes provide exactly that).
func TrainMSCN(cfg MSCNConfig, schema *catalog.Schema, samples []core.Sample, logMax float64) *MSCN {
	cfg = cfg.Defaults()
	m := NewMSCN(cfg, schema)
	m.LogMax = logMax
	type example struct {
		q    *query.Query
		mask query.BitSet
		card float64
	}
	var exs []example
	for _, s := range samples {
		s.Plan.Walk(func(n *plan.Node) {
			if n.TrueCard >= 0 {
				exs = append(exs, example{s.Query, n.Tables, n.TrueCard})
			}
		})
	}
	train := core.TrainConfig{Epochs: cfg.Epochs, Batch: cfg.Batch, LR: cfg.LR, ClipNorm: 5, Seed: cfg.Seed + 1}
	core.Minibatch(train, streamMSCN, len(exs), []*nn.Params{m.Params},
		func() (func(int, float64), []*nn.Params) {
			rep := m.replica()
			run := func(ei int, weight float64) {
				ex := exs[ei]
				t := autodiff.NewTape()
				pred := rep.forward(t, ex.q, ex.mask)
				loss := nn.QErrorLoss(t, pred, ex.card, rep.LogMax)
				loss.Grad[0] = weight
				t.BackwardFrom()
			}
			return run, []*nn.Params{rep.Params}
		}, nil)
	return m
}

// Name implements cardest.Estimator.
func (m *MSCN) Name() string { return "mscn" }

// EstimateSubset implements cardest.Estimator.
func (m *MSCN) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	t := autodiff.NewTape()
	pred := m.forward(t, q, mask)
	return nn.DenormalizeCard(pred.Scalar(), m.LogMax)
}

var _ cardest.Estimator = (*MSCN)(nil)

// EncodeSupportsSchema reports whether the MSCN instance was built for the
// given schema (guards against mixing databases in the harness).
func (m *MSCN) EncodeSupportsSchema(s *catalog.Schema) bool { return m.schema == s }

// NumWeights reports the model size.
func (m *MSCN) NumWeights() int { return m.Params.NumWeights() }
