package core

import (
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/treenn"
	"github.com/lpce-db/lpce/internal/workload"
)

// The session suite: the tape Forward is the oracle, and every estimate the
// tape-free sessions produce must equal it bit for bit, in any call order.

// randomModel returns an untrained model whose weights and biases are all
// non-zero, so every term of every kernel takes part in the comparison.
func randomModel(inputDim, hidden int, cell treenn.CellKind, seed int64) *treenn.TreeModel {
	m := treenn.NewTreeModel(treenn.Config{InputDim: inputDim, Hidden: hidden, OutWidth: 2 * hidden, Cell: cell, Seed: seed})
	m.LogMax = 13.5
	perturb(m.Params, seed+1)
	return m
}

func perturb(ps *nn.Params, seed int64) {
	rng := tensor.NewRNG(seed)
	for _, p := range ps.All() {
		d := tensor.NewVec(len(p.Val))
		rng.FillNormal(d, 0, 0.3)
		p.Val.Add(d)
	}
}

func randomRefiner(kind RefinerKind, db *storage.Database, enc *encode.Encoder, seed int64) *Refiner {
	r := &Refiner{Kind: kind, Enc: enc, DB: db, LogMax: 13.5}
	r.CardM = randomModel(enc.DimWithCards(), 12, treenn.CellSRU, seed)
	r.Refine = randomModel(enc.Dim(), 12, treenn.CellSRU, seed+10)
	if kind == RefinerFull {
		r.Content = randomModel(enc.Dim(), 12, treenn.CellSRU, seed+20)
		r.Connect = NewConnectLayer(12, seed+30)
		perturb(r.Connect.Params, seed+31)
	}
	return r
}

// sessionQueries returns one generated query per join count 2..8.
func sessionQueries(db *storage.Database, seed int64) []*query.Query {
	g := workload.NewGenerator(db, seed)
	var qs []*query.Query
	for joins := 2; joins <= 8; joins++ {
		qs = append(qs, g.Query(joins))
	}
	return qs
}

func connectedSubsets(q *query.Query) []query.BitSet {
	var out []query.BitSet
	for mask := query.BitSet(1); mask <= q.AllTablesMask(); mask++ {
		if q.Connected(mask) {
			out = append(out, mask)
		}
	}
	return out
}

// searchedSubsets returns the connected subsets of q that a re-plan's
// search asks an estimator for: all but those an executed sub-plan covers,
// whose counts the search seeds.
func searchedSubsets(q *query.Query, execs []reopt.Executed) []query.BitSet {
	return slices.DeleteFunc(connectedSubsets(q), func(m query.BitSet) bool {
		return slices.ContainsFunc(execs, func(e reopt.Executed) bool { return e.Mask() == m })
	})
}

func shuffled(masks []query.BitSet, seed int64) []query.BitSet {
	out := append([]query.BitSet(nil), masks...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tapeTreeEstimate is the pre-session TreeEstimator: the whole canonical
// tree of the subset on a fresh tape.
func tapeTreeEstimate(m *treenn.TreeModel, enc *encode.Encoder, q *query.Query, mask query.BitSet) float64 {
	root := exec.CanonicalPlan(q, mask)
	outs := m.Forward(autodiff.NewTape(), root, enc.EncodeNode, nil)
	return outs[root].Card(m.LogMax)
}

// tapeRefinedEstimate is the pre-session refined estimator: the unit tree of
// the subset on a fresh tape, the executed units inside it re-embedded by the
// frozen modules — also on tapes — and merged by the connect layer.
func tapeRefinedEstimate(r *Refiner, q *query.Query, kept []reopt.Executed, mask query.BitSet) float64 {
	root := unitTree(q, kept, mask)
	t := autodiff.NewTape()
	embed := func(m *treenn.TreeModel, sub *plan.Node, feat treenn.FeatureFn) *autodiff.Node {
		return t.Const(m.Forward(autodiff.NewTape(), sub, feat, nil)[sub].C.Data)
	}
	childC := make(map[*plan.Node]*autodiff.Node)
	for _, ex := range kept {
		cB := embed(r.CardM, ex.Node, CardFeature(r.Enc, r.LogMax, r.DB))
		if r.Kind == RefinerFull {
			childC[ex.Node] = r.Connect.Apply(t, embed(r.Content, ex.Node, r.Enc.EncodeNode), cB)
		} else {
			childC[ex.Node] = cB
		}
	}
	outs := r.Refine.Forward(t, root, r.Enc.EncodeNode, childC)
	return outs[root].Card(r.LogMax)
}

// unitTree returns the canonical tree of mask over the kept executed
// sub-plans.
func unitTree(q *query.Query, kept []reopt.Executed, mask query.BitSet) *plan.Node {
	nodes := make([]*plan.Node, len(kept))
	for i, ex := range kept {
		nodes[i] = ex.Node
	}
	return exec.CanonicalPlan(q, mask, nodes...)
}

// tapeSingleCards is LPCE-R-Single's pass as it ran before it went
// tape-free: the cardinality module over the whole tree on one tape, with
// the features of each node built from its children's running estimates,
// or their real cardinalities where executed.
func tapeSingleCards(r *Refiner, root *plan.Node, executed map[*plan.Node]bool) map[*plan.Node]float64 {
	t := autodiff.NewTape()
	cards := make(map[*plan.Node]float64)
	hidden := r.CardM.Cfg.Hidden
	childCard := func(n *plan.Node) float64 {
		if executed[n] && n.TrueCard >= 0 {
			return n.TrueCard
		}
		return cards[n]
	}
	var rec func(n *plan.Node) *autodiff.Node
	rec = func(n *plan.Node) *autodiff.Node {
		zero := t.NewNode(hidden)
		cl, cr := zero, zero
		var cardL, cardR float64
		switch {
		case n.Left != nil:
			cl = rec(n.Left)
			cardL = childCard(n.Left)
			if n.Right != nil {
				cr = rec(n.Right)
				cardR = childCard(n.Right)
			}
		case n.Table != nil:
			cardL = float64(r.DB.Table(n.Table).NumRows())
		case n.Mat != nil:
			cardL = float64(n.Mat.Card())
		}
		fv := r.Enc.WithCards(r.Enc.EncodeNode(n), cardL, cardR, r.LogMax)
		x := r.CardM.Embed.Apply(t, t.Input(fv))
		c, h := r.CardM.Cell.Apply(t, x, cl, cr)
		_, pred := r.CardM.Out.ApplyPreOutput(t, h)
		card := nn.DenormalizeCard(pred.Scalar(), r.LogMax)
		if executed[n] && n.TrueCard >= 0 {
			card = n.TrueCard
		}
		cards[n] = card
		return c
	}
	rec(root)
	return cards
}

// checkSession compares est against want over masks: through a session in
// the given order, through sessions in shuffled orders, and stateless.
func checkSession(t *testing.T, label string, est cardest.Estimator, q *query.Query, masks []query.BitSet, want func(query.BitSet) float64) {
	t.Helper()
	orders := [][]query.BitSet{masks, shuffled(masks, 1), shuffled(masks, 2), shuffled(masks, 3)}
	for oi, order := range orders {
		s := cardest.BeginQuery(est, q)
		for _, mask := range order {
			if got, w := s.EstimateSubset(q, mask), want(mask); got != w {
				t.Fatalf("%s: %d tables, order %d, subset %b: session %v, tape %v", label, len(q.Tables), oi, uint32(mask), got, w)
			}
		}
	}
	for _, mask := range masks {
		if got, w := est.EstimateSubset(q, mask), want(mask); got != w {
			t.Fatalf("%s: %d tables, subset %b: stateless %v, tape %v", label, len(q.Tables), uint32(mask), got, w)
		}
	}
}

func TestSessionTreeEstimatorMatchesTape(t *testing.T) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	models := map[string]*treenn.TreeModel{
		"sru":     randomModel(enc.Dim(), 16, treenn.CellSRU, 101),
		"lstm":    randomModel(enc.Dim(), 16, treenn.CellLSTM, 102),
		"student": randomModel(enc.Dim(), 8, treenn.CellSRU, 103), // LPCE-I's distilled width
	}
	for label, m := range models {
		est := &TreeEstimator{Label: label, Model: m, Enc: enc}
		for _, q := range sessionQueries(db, 201) {
			checkSession(t, label, est, q, connectedSubsets(q), func(mask query.BitSet) float64 {
				return tapeTreeEstimate(m, enc, q, mask)
			})
		}
	}
}

// executedSub builds an executed sub-plan over mask with true cardinalities
// stamped on every node. With mat set, its first table is replaced by a
// MatScan leaf, as in a plan that resumed from an earlier re-optimization.
func executedSub(q *query.Query, mask query.BitSet, seed int64, mat bool) reopt.Executed {
	root := exec.CanonicalPlan(q, mask)
	if mat {
		first := root
		for first.Left.Left != nil {
			first = first.Left
		}
		first.Left = plan.NewMatLeaf(&plan.Materialized{Tables: first.Left.Tables, Rows: plan.Rows{N: 37}})
	}
	rng := rand.New(rand.NewSource(seed))
	root.Walk(func(n *plan.Node) {
		if n.Op != plan.MatScan {
			n.TrueCard = float64(1 + rng.Intn(5000))
		}
	})
	return reopt.Executed{Node: root, Card: root.TrueCard}
}

// disjointPair picks two disjoint connected subsets of two or three tables.
func disjointPair(q *query.Query) (a, b query.BitSet, ok bool) {
	var small []query.BitSet
	for _, m := range connectedSubsets(q) {
		if c := m.Count(); c == 2 || c == 3 {
			small = append(small, m)
		}
	}
	for _, x := range small {
		for _, y := range small {
			if !x.Intersects(y) && x.Count() != y.Count() {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}

func TestSessionRefinedEstimatorMatchesTape(t *testing.T) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	for _, kind := range []RefinerKind{RefinerFull, RefinerTwo} {
		r := randomRefiner(kind, db, enc, 300+int64(kind))
		pairs := 0
		for _, q := range sessionQueries(db, 202) {
			a, b, ok := disjointPair(q)
			cases := map[string][]reopt.Executed{"0 subs": nil}
			if ok {
				pairs++
				cases["1 sub"] = []reopt.Executed{executedSub(q, a, 1, false)}
				cases["2 subs"] = []reopt.Executed{executedSub(q, b, 2, false), executedSub(q, a, 3, true)}
			}
			for name, execs := range cases {
				est := r.Estimator(q, execs)
				kept := est.(*refinedEstimator).execs
				if len(kept) != len(execs) {
					t.Fatalf("%v %s: kept %d of %d disjoint subs", kind, name, len(kept), len(execs))
				}
				checkSession(t, kind.String()+" "+name, est, q, searchedSubsets(q, execs), func(mask query.BitSet) float64 {
					return tapeRefinedEstimate(r, q, kept, mask)
				})
			}
		}
		if pairs < 4 {
			t.Fatalf("%v: only %d queries had two disjoint executed subs", kind, pairs)
		}
	}
}

// TestSessionSingleEstimatorMatchesTape holds LPCE-R-Single to its tape pass
// bit for bit: served, over every connected subset with 0-2 executed
// sub-plans (one resuming from a MatScan), and in EvalPrefix, the Table 3
// measurement, on every node after every prefix of collected plans.
func TestSessionSingleEstimatorMatchesTape(t *testing.T) {
	db, enc, samples, _ := fixture(t)
	r := randomRefiner(RefinerSingle, db, enc, 350)
	pairs := 0
	for _, q := range sessionQueries(db, 207) {
		a, b, ok := disjointPair(q)
		cases := map[string][]reopt.Executed{"0 subs": nil}
		if ok {
			pairs++
			cases["1 sub"] = []reopt.Executed{executedSub(q, a, 4, false)}
			cases["2 subs"] = []reopt.Executed{executedSub(q, b, 5, false), executedSub(q, a, 6, true)}
		}
		for name, execs := range cases {
			est := r.Estimator(q, execs)
			kept := est.(*refinedEstimator).execs
			var nodes []*plan.Node
			for _, ex := range kept {
				nodes = append(nodes, ex.Node)
			}
			checkSession(t, "lpce-r-single "+name, est, q, searchedSubsets(q, execs), func(mask query.BitSet) float64 {
				root := unitTree(q, kept, mask)
				return tapeSingleCards(r, root, markExecuted(nodes))[root]
			})
		}
	}
	if pairs < 4 {
		t.Fatalf("only %d queries had two disjoint executed subs", pairs)
	}
	checked := 0
	for _, s := range samples {
		for k := 1; k < s.Plan.NumNodes(); k++ {
			execRoots, remaining := PrefixSubtrees(s.Plan, k)
			executed := markExecuted(execRoots)
			got, want := r.singleCards(s.Plan, executed), tapeSingleCards(r, s.Plan, executed)
			var wantQ []float64
			for _, n := range s.Plan.Nodes() {
				if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
					t.Fatalf("sample %s, prefix %d, node %b: %v, tape %v", s.Query.SQL(), k, uint32(n.Tables), got[n], want[n])
				}
			}
			for _, n := range remaining {
				if n.TrueCard >= 0 {
					wantQ = append(wantQ, obs.QError(n.TrueCard, want[n]))
				}
			}
			if gotQ := r.EvalPrefix(s, k); !slices.Equal(gotQ, wantQ) {
				t.Fatalf("sample %s, prefix %d: EvalPrefix %v, tape %v", s.Query.SQL(), k, gotQ, wantQ)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d prefixes checked", checked)
	}
}

// TestRefinedEstimatorKeepsEarlierOfEqualSubs pins the choice between
// overlapping executed sub-plans of the same size from different plan
// rounds: the one executed first stays. The list is long enough (more than
// twelve) that an unstable sort would be free to reorder equal sizes.
func TestRefinedEstimatorKeepsEarlierOfEqualSubs(t *testing.T) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	r := randomRefiner(RefinerFull, db, enc, 400)
	q := sessionQueries(db, 203)[6]
	var pairs, singles []query.BitSet
	for _, m := range connectedSubsets(q) {
		switch m.Count() {
		case 1:
			singles = append(singles, m)
		case 2:
			pairs = append(pairs, m)
		}
	}
	if len(pairs)+len(singles) <= 12 {
		t.Fatalf("only %d executed subs", len(pairs)+len(singles))
	}
	reversed := make([]query.BitSet, len(pairs))
	for i, m := range pairs {
		reversed[len(pairs)-1-i] = m
	}
	for _, order := range [][]query.BitSet{pairs, reversed} {
		// execution order: the single tables, then the pairs; the pairs must
		// be considered first, in that order, then the tables still uncovered
		var execs []reopt.Executed
		for i, m := range append(append([]query.BitSet(nil), singles...), order...) {
			execs = append(execs, executedSub(q, m, int64(i), false))
		}
		var want []query.BitSet
		var covered query.BitSet
		for _, m := range append(append([]query.BitSet(nil), order...), singles...) {
			if !m.Intersects(covered) {
				want = append(want, m)
				covered |= m
			}
		}
		got := r.Estimator(q, execs).(*refinedEstimator).masks
		if len(got) != len(want) {
			t.Fatalf("kept %b, want %b", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kept %b, want %b", got, want)
			}
		}
	}
}

// TestSessionsShareModelConcurrently runs one session per goroutine over
// shared models: weights are read-only and no scratch is shared, which the
// race detector checks while the values are compared with the serial ones.
func TestSessionsShareModelConcurrently(t *testing.T) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	q := sessionQueries(db, 204)[5]
	a, b, ok := disjointPair(q)
	if !ok {
		t.Fatal("query has no two disjoint executed subs")
	}
	r := randomRefiner(RefinerFull, db, enc, 500)
	ests := []cardest.Estimator{
		&TreeEstimator{Label: "lpce-i", Model: randomModel(enc.Dim(), 8, treenn.CellSRU, 501), Enc: enc},
		r.Estimator(q, []reopt.Executed{executedSub(q, a, 7, false), executedSub(q, b, 8, true)}),
	}
	masks := connectedSubsets(q)
	for _, est := range ests {
		want := make(map[query.BitSet]float64, len(masks))
		for _, m := range masks {
			want[m] = est.EstimateSubset(q, m)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := cardest.BeginQuery(est, q)
				for _, m := range shuffled(masks, int64(g)) {
					if got := s.EstimateSubset(q, m); got != want[m] {
						t.Errorf("%s goroutine %d subset %b: %v, want %v", est.Name(), g, uint32(m), got, want[m])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// eightTableQuery is the 7-join query the allocation test and the
// microbenchmarks run.
func eightTableQuery(db *storage.Database) *query.Query {
	return sessionQueries(db, 205)[5]
}

func TestWarmSessionDoesNotAllocate(t *testing.T) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	q := eightTableQuery(db)
	a, b, ok := disjointPair(q)
	if !ok {
		t.Fatal("query has no two disjoint executed subs")
	}
	r := randomRefiner(RefinerFull, db, enc, 600)
	execs := []reopt.Executed{executedSub(q, a, 9, false), executedSub(q, b, 10, false)}
	all := connectedSubsets(q)
	for _, c := range []struct {
		est   cardest.Estimator
		masks []query.BitSet
	}{
		{&TreeEstimator{Label: "lpce-i", Model: randomModel(enc.Dim(), 8, treenn.CellSRU, 601), Enc: enc}, all},
		{&TreeEstimator{Label: "tlstm", Model: randomModel(enc.Dim(), 8, treenn.CellLSTM, 602), Enc: enc}, all},
		{r.Estimator(q, execs), searchedSubsets(q, execs)},
	} {
		est, masks := c.est, c.masks
		s := cardest.BeginQuery(est, q)
		var sink float64
		pass := func() {
			for _, m := range masks {
				sink += s.EstimateSubset(q, m)
			}
		}
		pass() // warm: every subset memoized, scratch at its working size
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%s: %v allocations per warm pass over %d subsets, want 0", est.Name(), allocs, len(masks))
		}
		if math.IsNaN(sink) {
			t.Fatal("NaN estimate")
		}
	}
}

// TestInferencePathImportsNoTape asserts what "no autodiff.NewTape reachable
// from engine.Execute" rests on: the files holding the inference path — the
// sessions here, the tree-model and layer forward kernels below — do not
// import the autodiff package at all.
func TestInferencePathImportsNoTape(t *testing.T) {
	for _, file := range []string{"infer.go", "../treenn/infer.go", "../nn/infer.go", "../encode/encode.go", "../tensor/tensor.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.FromSlash(file), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); filepath.Base(path) == "autodiff" {
				t.Errorf("%s imports %s", file, path)
			}
		}
	}
}

// TestCachedSessionMatchesStateless: a plan search through an estimate
// cache over LPCE-I equals the stateless estimates bit for bit, cold and
// warm, in ascending and descending order, bounded or not.
func TestCachedSessionMatchesStateless(t *testing.T) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	q := eightTableQuery(db)
	est := &TreeEstimator{Label: "lpce-i", Model: randomModel(enc.Dim(), 8, treenn.CellSRU, 703), Enc: enc}
	masks := connectedSubsets(q)
	want := make(map[query.BitSet]uint64, len(masks))
	for _, m := range masks {
		want[m] = math.Float64bits(est.EstimateSubset(q, m))
	}
	for _, capacity := range []int{0, 64} {
		c := cardest.NewCache(est, nil, capacity)
		for pass := 0; pass < 2; pass++ {
			s := c.BeginQuery(q)
			for i := range masks {
				m := masks[i]
				if pass == 1 {
					m = masks[len(masks)-1-i]
				}
				if got := math.Float64bits(s.EstimateSubset(q, m)); got != want[m] {
					t.Fatalf("capacity %d, pass %d, mask %#x: cached %v, stateless %v",
						capacity, pass, uint64(m), math.Float64frombits(got), math.Float64frombits(want[m]))
				}
			}
		}
	}
}

func BenchmarkEstimateSubset(b *testing.B) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	q := eightTableQuery(db)
	est := &TreeEstimator{Label: "lpce-i", Model: randomModel(enc.Dim(), 8, treenn.CellSRU, 701), Enc: enc}
	masks := connectedSubsets(q)
	var sink float64
	// One op is one estimate; a session is opened per plan search's worth of
	// them, as the optimizer does, so its set-up is part of the cost.
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; {
			s := est.BeginQuery(q)
			for _, m := range masks {
				if i++; i > b.N {
					break
				}
				sink += s.EstimateSubset(q, m)
			}
		}
	})
	b.Run("stateless", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += est.EstimateSubset(q, masks[i%len(masks)])
		}
	})
	// Every estimate misses an empty cache, as a served plan search on a new
	// query does; building the cache is left out of the timing.
	b.Run("cache-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; {
			b.StopTimer()
			c := cardest.NewCache(est, nil, 0)
			b.StartTimer()
			s := c.BeginQuery(q)
			for _, m := range masks {
				if i++; i > b.N {
					break
				}
				sink += s.EstimateSubset(q, m)
			}
		}
	})
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += tapeTreeEstimate(est.Model, enc, q, masks[i%len(masks)])
		}
	})
	_ = sink
}

// BenchmarkReplanEstimator times what one re-optimization pays for
// estimates: taking in two executed sub-plans, then every subset the search
// asks for — LPCE-R embedding them, and the error-ratio overlay over an
// LPCE-I estimator.
func BenchmarkReplanEstimator(b *testing.B) {
	db := testutil.TinyDB()
	enc := encode.NewEncoder(db.Schema)
	q := eightTableQuery(db)
	x, y, ok := disjointPair(q)
	if !ok {
		b.Fatal("query has no two disjoint executed subs")
	}
	r := randomRefiner(RefinerFull, db, enc, 702)
	execs := []reopt.Executed{executedSub(q, x, 11, false), executedSub(q, y, 12, false)}
	masks := searchedSubsets(q, execs)
	var sink float64
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := cardest.BeginQuery(r.Estimator(q, execs), q)
			for _, m := range masks {
				sink += s.EstimateSubset(q, m)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(masks)), "ns/estimate")
	})
	b.Run("overlay", func(b *testing.B) {
		b.ReportAllocs()
		lpcei := &TreeEstimator{Label: "lpce-i", Model: randomModel(enc.Dim(), 8, treenn.CellSRU, 703), Enc: enc}
		for i := 0; i < b.N; i++ {
			s := cardest.BeginQuery(reopt.OverlayRefiner{Base: lpcei}.Estimator(q, execs), q)
			for _, m := range masks {
				sink += s.EstimateSubset(q, m)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(masks)), "ns/estimate")
	})
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		kept := r.Estimator(q, execs).(*refinedEstimator).execs
		for i := 0; i < b.N; i++ {
			for _, m := range masks {
				sink += tapeRefinedEstimate(r, q, kept, m)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(masks)), "ns/estimate")
	})
	_ = sink
}
