package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/workload"
)

var (
	kindsOnce sync.Once
	fixKinds  []namedRefiner
)

type namedRefiner struct {
	name string
	r    Refiner
}

// refinerKinds returns every refiner kind over the fixture: LPCE-R, its
// two ablations over the full refiner's stage-1 modules (as Table 3 builds
// them), and the error-ratio overlay over est.
func refinerKinds(t *testing.T, est *core.TreeEstimator) []namedRefiner {
	t.Helper()
	db, _, full := fixture(t)
	kindsOnce.Do(func() {
		variant := func(kind core.RefinerKind) *core.Refiner {
			cfg := fixRefinerCfg
			cfg.Kind = kind
			return core.TrainRefiner(cfg, full.Content, full.CardM, full.Enc, db, fixSamples, fixLogMax)
		}
		fixKinds = []namedRefiner{
			{"full", full},
			{"two", variant(core.RefinerTwo)},
			{"single", variant(core.RefinerSingle)},
		}
	})
	return append(fixKinds[:len(fixKinds):len(fixKinds)], namedRefiner{"overlay", reopt.OverlayRefiner{Base: est}})
}

// pipelinedPolicy's threshold is low enough that the fixture's LPCE-I
// estimates trip pipelined checks on pipelinedQueries under every refiner
// kind, and its MaxReopts low enough that some queries reach it.
var pipelinedPolicy = reopt.Policy{QErrThreshold: 8, MaxReopts: 3}

// pipelinedQueries are the generated queries the pipelined-check tests run.
func pipelinedQueries(t *testing.T) []*query.Query {
	db, _, _ := fixture(t)
	return workload.NewGenerator(db, 151).QueriesRange(24, 4, 6)
}

// runSummary is what two runs of one query must agree on.
func runSummary(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d reopts=%d work=%d\n%s", res.Count, res.Reopts, res.ExecWork, res.FinalPlan)
	for _, ev := range res.Trace.Events {
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	return b.String()
}

// TestPipelinedReoptInvariants runs generated queries under every refiner
// with a threshold that trips pipelined checks, and holds the re-opt
// invariants: the count equals the no-refiner run's, every lower bound is
// at most the subset's true cardinality, only non-root hash joins are
// checked, MaxReopts caps both kinds of trigger together, a second run
// repeats the plans and work exactly, and no re-plan asks its refiner for
// a subset an executed sub-plan covers (guardedRefiner).
func TestPipelinedReoptInvariants(t *testing.T) {
	db, lpcei, _ := fixture(t)
	e := New(db)
	est := &core.TreeEstimator{Label: "lpce-i", Model: lpcei.Model, Enc: lpcei.Enc}
	oracle := exec.NewTrueCardOracle(db)
	queries := pipelinedQueries(t)
	plain := make([]int, len(queries))
	for i, q := range queries {
		res, err := e.Execute(q, Config{Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		plain[i] = res.Count
	}
	for _, k := range refinerKinds(t, est) {
		t.Run(k.name, func(t *testing.T) {
			// pipelined triggers, pipelined checks suppressed by the cap, and
			// queries that triggered on both kinds, over the first runs
			pipelined, capped, mixed := 0, 0, 0
			guard := &guardedRefiner{t: t, r: k.r}
			for i, q := range queries {
				cfg := Config{Estimator: est, Refiner: guard, Policy: pipelinedPolicy}
				var first string
				for run := range 2 {
					cfg.Obs = obs.NewObserver()
					res, err := e.Execute(q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != plain[i] {
						t.Fatalf("%s: count %d, no-refiner run %d", q.SQL(), res.Count, plain[i])
					}
					triggered, byKind := 0, [2]int{}
					for _, ev := range res.Trace.Events {
						if ev.Triggered {
							triggered++
							if ev.LowerBound {
								byKind[1]++
							} else {
								byKind[0]++
							}
						}
						if !ev.LowerBound {
							continue
						}
						if ev.Op != plan.HashJoin.String() || ev.Mask == q.AllTablesMask() {
							t.Fatalf("%s: pipelined check on %s %v, want a non-root hash join", q.SQL(), ev.Op, ev.Mask)
						}
						if want := oracle.EstimateSubset(q, ev.Mask); ev.ActualRows > want {
							t.Fatalf("%s: lower bound %.0f on %v exceeds the true %.0f", q.SQL(), ev.ActualRows, ev.Mask, want)
						}
						if run == 0 && ev.Suppressed == "max-reopts" {
							capped++
						}
					}
					if run == 0 {
						pipelined += byKind[1]
						if byKind[0] > 0 && byKind[1] > 0 {
							mixed++
						}
					}
					if triggered != res.Reopts || res.Reopts > pipelinedPolicy.MaxReopts {
						t.Fatalf("%s: %d triggers, %d reopts, cap %d", q.SQL(), triggered, res.Reopts, pipelinedPolicy.MaxReopts)
					}
					if s := runSummary(res); run == 0 {
						first = s
					} else if s != first {
						t.Fatalf("%s: second run differs:\n%s\nvs\n%s", q.SQL(), s, first)
					}
				}
			}
			if pipelined == 0 || capped == 0 || mixed == 0 || guard.asked == 0 {
				t.Fatalf("%d pipelined triggers, %d capped pipelined checks, %d queries triggering on both kinds, %d estimates after an execution: the invariants went unexercised",
					pipelined, capped, mixed, guard.asked)
			}
		})
	}
}

// guardedRefiner holds r to Refiner's contract: its estimators, called
// directly or through a session, fail t when asked for the subset of an
// executed sub-plan they were built from. asked counts the estimates made
// with at least one executed sub-plan.
type guardedRefiner struct {
	t     *testing.T
	r     Refiner
	asked int
}

func (g *guardedRefiner) Estimator(q *query.Query, execs []reopt.Executed) cardest.Estimator {
	return &guardedEstimator{Estimator: g.r.Estimator(q, execs), g: g, execs: execs}
}

type guardedEstimator struct {
	cardest.Estimator
	g     *guardedRefiner
	execs []reopt.Executed
}

func (e *guardedEstimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	for _, ex := range e.execs {
		if ex.Mask() == mask {
			e.g.t.Errorf("%s: refiner %s asked for executed subset %b", q.SQL(), e.Name(), uint32(mask))
		}
	}
	if len(e.execs) > 0 {
		e.g.asked++
	}
	return e.Estimator.EstimateSubset(q, mask)
}

func (e *guardedEstimator) BeginQuery(q *query.Query) cardest.Estimator {
	return &guardedEstimator{Estimator: cardest.BeginQuery(e.Estimator, q), g: e.g, execs: e.execs}
}

// TestPipelinedPauseLeavesNoPartialCounts: an operator the signal unwinds
// reports ActualRows = -1, so the CE evaluation never takes a partial count
// as a true cardinality; every count a trace does report is exact.
func TestPipelinedPauseLeavesNoPartialCounts(t *testing.T) {
	db, lpcei, full := fixture(t)
	e := New(db)
	est := &core.TreeEstimator{Label: "lpce-i", Model: lpcei.Model, Enc: lpcei.Enc}
	oracle := exec.NewTrueCardOracle(db)
	paused := 0
	for _, q := range pipelinedQueries(t) {
		res, err := e.Execute(q, Config{Estimator: est, Refiner: full, Policy: pipelinedPolicy, Obs: obs.NewObserver()})
		if err != nil {
			t.Fatal(err)
		}
		for i, rd := range res.Trace.Rounds {
			for _, op := range rd.Ops {
				if op.ActualRows >= 0 && op.ActualRows != oracle.EstimateSubset(q, op.Mask) {
					t.Fatalf("%s round %d: %s %v reports %.0f rows, true %.0f",
						q.SQL(), i, op.Op, op.Mask, op.ActualRows, oracle.EstimateSubset(q, op.Mask))
				}
			}
		}
		for _, ev := range res.Trace.Events {
			if !ev.Triggered || !ev.LowerBound {
				continue
			}
			paused++
			s := res.Trace.Rounds[ev.Round].ByMask(ev.Mask)
			if s == nil || s.ActualRows != -1 {
				t.Fatalf("%s round %d: tripped join %v reports %+v, want ActualRows -1", q.SQL(), ev.Round, ev.Mask, s)
			}
		}
	}
	if paused == 0 {
		t.Fatal("no pipelined check paused a query")
	}
}
