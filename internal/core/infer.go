package core

import (
	"math/bits"
	"sort"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/treenn"
)

// This file is the inference path of LPCE-I and LPCE-R: tape-free and
// incremental. Nothing here touches autodiff; training (train.go, lpcei.go,
// lpcer.go) keeps the tape, and the tests use it as the oracle.

// session estimates subsets of one query for one plan search, memoizing
// the node encoding C of every subset it has evaluated.
//
// A subset is featurized as a canonical left-deep tree over its units — the
// executed sub-plans lying inside it (pre-embedded leaves, LPCE-R only) and
// one scan leaf per remaining table — joined in query.CanonicalOrder, the one
// rule exec.CanonicalPlan also builds its trees by. Because each choice of
// that order depends only on the covered set, the first j units of a
// subset's order are exactly the order of the subset they cover: every
// prefix of a canonical tree is the canonical tree of its own mask. So the
// encoding stored for a mask is the left child of every subset that extends
// it by one unit, and during a DP search — which asks for subsets by
// increasing size — each estimate costs one embed, one cell and one output
// MLP.
//
// A session belongs to one goroutine. The model and the executed-unit
// encodings are shared read-only; scratch and memo are private.
type session struct {
	m   *treenn.TreeModel
	enc *encode.Encoder
	q   *query.Query

	pre  []query.BitSet // masks of the pre-embedded units, disjoint
	memo map[query.BitSet]tensor.Vec

	store   *tensor.Arena // memoized encodings; never reset
	scratch *tensor.Arena // activations of the estimate in flight
	feat    tensor.Vec
	units   []query.BitSet
	conds   []query.Join
	preds   []query.Predicate
}

// newSession opens a session expecting about hint memoized subsets. pre and
// preC are the masks and encodings of the pre-embedded units.
func newSession(m *treenn.TreeModel, enc *encode.Encoder, q *query.Query, pre []query.BitSet, preC []tensor.Vec, hint int) *session {
	n := len(q.Tables)
	hidden := m.Cfg.Hidden
	s := &session{
		m: m, enc: enc, q: q, pre: pre,
		memo:    make(map[query.BitSet]tensor.Vec, hint+len(pre)),
		store:   tensor.NewArena(hint * hidden),
		scratch: tensor.NewArena(16*hidden + m.Cfg.OutWidth),
		feat:    tensor.NewVec(enc.Dim()),
		units:   make([]query.BitSet, 0, n),
		conds:   make([]query.Join, 0, len(q.Joins)),
		preds:   make([]query.Predicate, 0, len(q.Preds)),
	}
	for i, mask := range pre {
		s.memo[mask] = preC[i]
	}
	return s
}

// sessionHint bounds the memo a DP search over q can fill.
func sessionHint(q *query.Query) int {
	const most = 256 // beyond this the memo grows on demand
	if n := len(q.Tables); n < 8 {
		return 1<<uint(n) - 1
	}
	return most
}

// estimate returns the model's cardinality for mask, which must be
// non-empty and must not equal a pre-embedded unit's mask.
func (s *session) estimate(mask query.BitSet) float64 {
	s.scratch.Reset()
	units := s.order(mask)

	// Longest memoized proper prefix: the root itself is always evaluated,
	// because the estimate needs its representation h, not only C.
	from, cur := 0, query.BitSet(0)
	var c tensor.Vec
	for j, acc := len(units)-1, mask&^units[len(units)-1]; j >= 1; j-- {
		if v, ok := s.memo[acc]; ok {
			from, cur, c = j, acc, v
			break
		}
		acc &^= units[j-1]
	}
	var h tensor.Vec
	if from == 0 {
		c, h = s.leaf(units[0])
		from, cur = 1, units[0]
	}
	for _, u := range units[from:] {
		cr := s.unit(u)
		s.conds = s.q.AppendJoinsBetween(s.conds[:0], cur, u)
		s.enc.EncodeJoinInto(s.feat, s.conds)
		cur |= u
		c, h = s.node(cur, c, cr)
	}
	return s.m.InferCard(s.scratch, h)
}

// order splits mask into its units and arranges them in canonical order.
func (s *session) order(mask query.BitSet) []query.BitSet {
	units := s.units[:0]
	rest := mask
	for _, p := range s.pre {
		if p&mask == p {
			units = append(units, p)
			rest &^= p
		}
	}
	for ; rest != 0; rest &= rest - 1 {
		units = append(units, rest&-rest)
	}
	return s.q.CanonicalOrder(units)
}

// unit returns the encoding of one unit: memoized, or a scan leaf's.
func (s *session) unit(u query.BitSet) tensor.Vec {
	if c, ok := s.memo[u]; ok {
		return c
	}
	c, _ := s.leaf(u)
	return c
}

// leaf evaluates the scan leaf of the single table in u.
func (s *session) leaf(u query.BitSet) (c, h tensor.Vec) {
	t := s.q.Tables[bits.TrailingZeros32(uint32(u))]
	s.preds = s.preds[:0]
	for _, p := range s.q.Preds {
		if p.Col.Table == t {
			s.preds = append(s.preds, p)
		}
	}
	s.enc.EncodeScanInto(s.feat, s.preds)
	return s.node(u, nil, nil)
}

// node applies the model to s.feat and the child encodings, memoizing the
// encoding of mask on first evaluation.
func (s *session) node(mask query.BitSet, cl, cr tensor.Vec) (c, h tensor.Vec) {
	hidden := s.m.Cfg.Hidden
	if _, seen := s.memo[mask]; seen {
		c = s.scratch.Vec(hidden)
	} else {
		c = s.store.Vec(hidden)
		s.memo[mask] = c
	}
	return c, s.m.InferNode(s.scratch, s.feat, cl, cr, c)
}

// TreeEstimator adapts any tree model to the optimizer's estimator
// interface: a table subset is featurized through its canonical logical
// plan (scan leaves plus left-deep joins) and the model's root prediction is
// the estimate. It serves LPCE-I, TLSTM and the LPCE ablation variants.
type TreeEstimator struct {
	Label string
	Model *treenn.TreeModel
	Enc   *encode.Encoder
}

// Name implements cardest.Estimator.
func (e *TreeEstimator) Name() string { return e.Label }

// EstimateSubset implements cardest.Estimator as a one-shot session.
func (e *TreeEstimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	return newSession(e.Model, e.Enc, q, nil, nil, mask.Count()).estimate(mask)
}

// BeginQuery implements cardest.SessionEstimator.
func (e *TreeEstimator) BeginQuery(q *query.Query) cardest.Estimator {
	return &treeSession{e, newSession(e.Model, e.Enc, q, nil, nil, sessionHint(q))}
}

type treeSession struct {
	*TreeEstimator
	s *session
}

func (t *treeSession) EstimateSubset(_ *query.Query, mask query.BitSet) float64 {
	return t.s.estimate(mask)
}

var _ cardest.SessionEstimator = (*TreeEstimator)(nil)

// Estimator returns a cardest.Estimator that refines subset estimates using
// the executed sub-plans: subsets exactly matching an executed sub-plan get
// its exact cardinality; other subsets are estimated by the refine module
// over a unit tree in which executed sub-plans appear as pre-embedded
// leaves. The embeddings are computed here, once per re-optimization; the
// returned estimator is immutable and safe for concurrent use. execs is
// read, never reordered.
func (r *Refiner) Estimator(q *query.Query, execs []reopt.Executed) cardest.Estimator {
	// keep maximal, disjoint executed subtrees, largest first; among equal
	// sizes the earlier-executed one wins
	execs = append([]reopt.Executed(nil), execs...)
	sort.SliceStable(execs, func(i, j int) bool { return execs[i].Mask().Count() > execs[j].Mask().Count() })
	e := &refinedEstimator{r: r}
	var covered query.BitSet
	for _, ex := range execs {
		if ex.Mask().Intersects(covered) {
			continue
		}
		e.execs = append(e.execs, ex)
		e.masks = append(e.masks, ex.Mask())
		covered = covered.Union(ex.Mask())
	}
	if r.Kind == RefinerSingle {
		for _, ex := range e.execs {
			e.nodes = append(e.nodes, ex.Node)
		}
		e.executed = markExecuted(e.nodes)
		return e
	}
	a := tensor.NewArena(0)
	plain, card := r.arenaFeatures(a)
	for _, ex := range e.execs {
		e.embeds = append(e.embeds, r.executedEmbedding(a, ex.Node, plain, card))
	}
	return e
}

// arenaFeatures returns the plain and the cardinality-augmented feature
// functions (EncodeNode's and CardFeature's), writing every vector into
// scratch carved from a instead of allocating it.
func (r *Refiner) arenaFeatures(a *tensor.Arena) (plain, card treenn.FeatureFn) {
	plain = func(n *plan.Node) tensor.Vec {
		v := a.Vec(r.Enc.Dim())
		r.Enc.EncodeNodeInto(v, n)
		return v
	}
	card = func(n *plan.Node) tensor.Vec {
		v := a.Vec(r.Enc.DimWithCards())
		r.Enc.EncodeNodeInto(v, n)
		left, right := childCards(r.DB, n)
		r.Enc.EncodeCardsInto(v, left, right, r.LogMax)
		return v
	}
	return plain, card
}

// executedEmbedding computes what the refine module sees in place of an
// executed subtree: the connect-layer merge of the frozen content and
// cardinality modules' encodings (full design) or the cardinality encoding
// alone (two-module ablation).
func (r *Refiner) executedEmbedding(a *tensor.Arena, sub *plan.Node, plain, card treenn.FeatureFn) tensor.Vec {
	cB, _ := r.CardM.Encode(a, sub, card)
	if r.Kind != RefinerFull {
		return cB
	}
	cA, _ := r.Content.Encode(a, sub, plain)
	out := a.Vec(len(cA))
	r.Connect.Infer(a, cA, cB, out)
	return out
}

// Infer merges the two embeddings into out, as Apply does on the tape.
func (c *ConnectLayer) Infer(a *tensor.Arena, cA, cB, out tensor.Vec) {
	n := len(out)
	wA, wB, mix := a.Vec(n), a.Vec(n), a.Vec(n)
	c.wa.Infer(cA, wA)
	c.wb.Infer(cB, wB)
	for i := range mix {
		mix[i] = float64(nn.Sigmoid(wA[i])*cA[i]) + float64(nn.Sigmoid(wB[i])*cB[i])
	}
	c.wout.Infer(mix, out)
	nn.ReLU(out)
}

type refinedEstimator struct {
	r      *Refiner
	execs  []reopt.Executed // kept: maximal and disjoint
	masks  []query.BitSet   // execs[i].Mask()
	embeds []tensor.Vec     // execs[i]'s embedding; nil for RefinerSingle
	// RefinerSingle only: execs[i].Node, and every node inside them
	nodes    []*plan.Node
	executed map[*plan.Node]bool
}

func (e *refinedEstimator) Name() string { return e.r.Kind.String() }

// exact returns the true cardinality of a subset an executed sub-plan
// covers exactly.
func (e *refinedEstimator) exact(mask query.BitSet) (float64, bool) {
	for i, m := range e.masks {
		if m == mask {
			return e.execs[i].Card, true
		}
	}
	return 0, false
}

// EstimateSubset implements cardest.Estimator as a one-shot session.
func (e *refinedEstimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	if card, ok := e.exact(mask); ok {
		return card
	}
	if e.r.Kind == RefinerSingle {
		return e.singleEstimate(q, mask)
	}
	return newSession(e.r.Refine, e.r.Enc, q, e.masks, e.embeds, mask.Count()).estimate(mask)
}

// BeginQuery implements cardest.SessionEstimator. LPCE-R-Single has no
// refine module to memoize for and stays stateless.
func (e *refinedEstimator) BeginQuery(q *query.Query) cardest.Estimator {
	if e.r.Kind == RefinerSingle {
		return e
	}
	return &refinedSession{e, newSession(e.r.Refine, e.r.Enc, q, e.masks, e.embeds, sessionHint(q))}
}

type refinedSession struct {
	*refinedEstimator
	s *session
}

func (r *refinedSession) EstimateSubset(_ *query.Query, mask query.BitSet) float64 {
	if card, ok := r.exact(mask); ok {
		return card
	}
	return r.s.estimate(mask)
}

// singleEstimate is the LPCE-R-Single estimate of a subset: the cardinality
// module's pass over the subset's canonical tree, whose executed units keep
// their real cardinalities.
func (e *refinedEstimator) singleEstimate(q *query.Query, mask query.BitSet) float64 {
	root := exec.CanonicalPlan(q, mask, e.nodes...)
	return e.r.singleCards(root, e.executed)[root]
}

// markExecuted flags every node inside the executed subtrees.
func markExecuted(execRoots []*plan.Node) map[*plan.Node]bool {
	m := make(map[*plan.Node]bool)
	for _, sub := range execRoots {
		sub.Walk(func(n *plan.Node) { m[n] = true })
	}
	return m
}

// singleCards is the LPCE-R-Single inference pass: one cardinality-
// augmented module processes the whole plan bottom-up; executed children
// contribute their real cardinalities while remaining children contribute
// the model's own running estimates — the train/inference mismatch the
// paper blames for LPCE-R-Single's poor accuracy.
func (r *Refiner) singleCards(root *plan.Node, executed map[*plan.Node]bool) map[*plan.Node]float64 {
	a := tensor.NewArena(0)
	cards := make(map[*plan.Node]float64)
	var rec func(n *plan.Node) tensor.Vec
	rec = func(n *plan.Node) tensor.Vec {
		var cl, cr tensor.Vec
		left, right := childCards(r.DB, n) // a leaf's input size, as in training
		if n.Left != nil {
			cl = rec(n.Left)
			left = cards[n.Left]
		}
		if n.Right != nil {
			cr = rec(n.Right)
			right = cards[n.Right]
		}
		feat := a.Vec(r.Enc.DimWithCards())
		r.Enc.EncodeNodeInto(feat, n)
		r.Enc.EncodeCardsInto(feat, left, right, r.LogMax)
		c := a.Vec(r.CardM.Cfg.Hidden)
		h := r.CardM.InferNode(a, feat, cl, cr, c)
		if executed[n] && n.TrueCard >= 0 {
			cards[n] = n.TrueCard
		} else {
			cards[n] = r.CardM.InferCard(a, h)
		}
		return c
	}
	rec(root)
	return cards
}
