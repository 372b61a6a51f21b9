package exec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// Pooled buffers come back holding another query's bytes (pool.go). These
// tests fill every buffer in every pool with a sentinel before a run, so a
// buffer read before it is written, or a batch read after its producer gave
// its arena back, moves a count, a work total or a checkpoint — and run
// executions concurrently, so two queries sharing one buffer fail the race
// detector or the serial counts.

// poisonClasses seeds the pool classes up to 1<<poisonClasses elements with
// sentinel buffers even before any run has returned one; larger classes
// are poisoned once a run has put a buffer there.
const poisonClasses = 12

// poisonPools fills every buffer in every pool, to full capacity, with a
// sentinel: arenas, order and scratch get values no key takes, and hash
// slots look occupied, so a missed clear answers lookups with bogus spans.
func poisonPools() {
	poisonPool(&int64Pool, -0x5eed5eed5eed)
	poisonPool(&slotPool, hashSlot{hash: 0x5eed, span: span{lo: 3, hi: 7}})
	poisonPool(&int32Pool, 0x5eed5eed)
	poisonPool(&uint32Pool, 0x5eed5eed)
	poisonPool(&spanPool, span{lo: 3, hi: 7})
}

func poisonPool[T any](p *bufPool[T], v T) {
	for c := range p.classes {
		var held []*[]T
		for x := p.classes[c].Get(); x != nil; x = p.classes[c].Get() {
			held = append(held, x.(*[]T))
		}
		for len(held) < 2 && c <= poisonClasses {
			s := make([]T, 1<<c)
			held = append(held, &s)
		}
		for _, box := range held {
			s := (*box)[:cap(*box)]
			for i := range s {
				s[i] = v
			}
			p.put(box)
		}
	}
}

// poisoningOp passes batches through unchanged, but poisons every free
// batch arena each time one goes by — as if another query had taken and
// written them — so a batch whose arena its producer gave back before the
// consumer was done reads the sentinel.
type poisoningOp struct{ BatchOperator }

func (o poisoningOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := o.BatchOperator.NextBatch(ctx)
	poisonPool(&int64Pool, -0x5eed5eed5eed)
	return b, err
}

func poisonBetweenBatches(_ *Ctx, op BatchOperator, _ *plan.Node) BatchOperator {
	return poisoningOp{op}
}

// TestPooledBuffersPoisoned runs the pinned projection corpus (counts,
// work, buffered rows, TrueCards and checkpoint sequences, also under a
// work budget and a materialized-rows limit, plus the sample collector)
// with every pool poisoned before each run, and the differential fuzz
// target's seed queries against the reference with the free batch arenas
// poisoned between any two batches as well.
func TestPooledBuffersPoisoned(t *testing.T) {
	db := testutil.SmallDB()
	pins := loadProjectionPins(t)
	refs := make(map[*query.Query]*refEval)
	for _, v := range projectionVariants(t, db) {
		ref := refs[v.q]
		if ref == nil {
			ref = newRefEval(db, v.q)
			refs[v.q] = ref
		}
		poisonPools()
		line := observe(t, db, v.q, v.p, v.name, ref)
		poisonPools()
		line += observeCollect(t, db, v.q, v.p, v.name, ref)
		if line != pins[v.name] {
			t.Errorf("poisoned pools moved the pinned accounting:\n got %s\nwant %s", line, pins[v.name])
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		q := workload.NewGenerator(db, seed).Query(1 + int(seed%3))
		ref := newRefEval(db, q)
		planVariants(q, func(q *query.Query, p *plan.Node, variant string) {
			name := fmt.Sprintf("seed %d %s: %s", seed, variant, q.SQL())
			poisonPools()
			rc := &ckptRecorder{t: t, name: name, ref: ref}
			count, err := Run(&Ctx{DB: db, Q: q, Controller: rc, Wrap: poisonBetweenBatches}, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := len(ref.projected(q.AllTablesMask())); count != want {
				t.Fatalf("%s: count %d, reference %d", name, count, want)
			}
			checkTrueCards(t, name, p, ref)
		})
	}
}

// runOutcome is what one execution must reproduce whatever else runs.
type runOutcome struct {
	count  int
	work   int64
	events []ckptEvent
}

func runRecorded(t testing.TB, p *plan.Node, ctx *Ctx) runOutcome {
	t.Helper()
	rc := &ckptRecorder{}
	ctx.Controller = rc
	count, err := Run(ctx, p)
	if err != nil {
		t.Errorf("%s: %v", ctx.Q.SQL(), err)
	}
	return runOutcome{count, ctx.Work(), rc.events}
}

// TestConcurrentRunsShareBuffers runs the reference-equivalence corpus on
// eight goroutines at once, repeatedly, all drawing on the same pools: every
// run must reproduce the serial run's count, work and checkpoint sequence
// (row hashes included). Under -race a buffer shared by two live queries is
// a reported race.
func TestConcurrentRunsShareBuffers(t *testing.T) {
	db := testutil.TinyDB()
	type job struct {
		q    *query.Query
		p    *plan.Node
		want runOutcome
	}
	var jobs []job
	equivCorpus(t, db, 41, 12, func(q *query.Query, p *plan.Node, _ string) {
		jobs = append(jobs, job{q, p, runRecorded(t, p.Clone(), &Ctx{DB: db, Q: q})})
	})
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range jobs {
					j := jobs[(i+w*len(jobs)/workers)%len(jobs)] // workers start apart
					got := runRecorded(t, j.p.Clone(), &Ctx{DB: db, Q: j.q})
					if got.count != j.want.count || got.work != j.want.work || !slices.Equal(got.events, j.want.events) {
						t.Errorf("worker %d: %s: concurrent run %+v, serial %+v", w, j.q.SQL(), got, j.want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHashJoinProbeOnlyFanOut covers the hash join's probe-only emit: on a
// fan-out star, a single-condition join whose output keeps the build side's
// key reads it from the probe row instead, so every output column comes from
// the probe and each candidate range is one replicated row (at width 1 a
// fill, wider by doubling copies); the fan-out then feeds the next join runs
// of equal probe keys. Counts, every checkpoint's rows and every TrueCard
// must equal the reference, in plans that take the probe-only path at
// widths 1 and 3.
func TestHashJoinProbeOnlyFanOut(t *testing.T) {
	db := testutil.TinyDB()
	const star = `SELECT COUNT(*) FROM title, movie_keyword, keyword, cast_info
		WHERE movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
		  AND cast_info.movie_id = title.id AND title.id < 150`
	for _, c := range []struct {
		name, sql string
		order     []string // left-deep join order, first table the deepest probe
		at        int      // which join (0 = the bottom one) must be probe-only
		width     int
	}{
		// the second join keeps only movie_keyword.keyword_id, from its
		// probe, and fans out over cast_info: width 1
		{"width1", star, []string{"title", "movie_keyword", "cast_info", "keyword"}, 1, 1},
		// with the transitive condition the bottom join keeps both movie_id
		// keys and keyword_id, cast_info.movie_id being its build key: width 3
		{"width3", star + " AND cast_info.movie_id = movie_keyword.movie_id",
			[]string{"movie_keyword", "cast_info", "title", "keyword"}, 0, 3},
	} {
		q, err := sqlparse.Parse(db.Schema, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var joins []*plan.Node
		var root *plan.Node
		for _, name := range c.order {
			tab := db.Schema.Table(name)
			leaf := plan.NewLeaf(plan.SeqScan, tab, q.TableIndex(tab), q.PredsOn(tab))
			if root == nil {
				root = leaf
				continue
			}
			root = plan.NewJoin(plan.HashJoin, root, leaf, q.JoinsBetween(root.Tables, leaf.Tables))
			joins = append(joins, root)
		}
		node := joins[c.at]
		op, err := newBatchHashJoin(&Ctx{DB: db, Q: q}, node)
		if err != nil {
			t.Fatal(err)
		}
		if !op.probeOnly || op.merge.width() != c.width {
			t.Fatalf("%s: probeOnly %v at width %d, want the probe-only path at width %d",
				c.name, op.probeOnly, op.merge.width(), c.width)
		}
		checkAgainstReference(t, db, q, root, c.name, newRefEval(db, q))
		if probeRows := node.Left.TrueCard; node.TrueCard <= probeRows {
			t.Fatalf("%s: join emits %v rows from %v probe rows, the fixture does not fan out",
				c.name, node.TrueCard, probeRows)
		}
	}
}
