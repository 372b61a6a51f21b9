package workload

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/lpce-db/lpce/internal/testutil"
)

func TestGenerateOversizedJoinReturnsError(t *testing.T) {
	db := testutil.TinyDB()
	g := NewGenerator(db, 1)
	nTables := len(db.Schema.Tables)
	q, err := g.Generate(nTables) // needs nTables+1 distinct tables
	if err == nil || q != nil {
		t.Fatalf("oversized join request must fail, got q=%v err=%v", q, err)
	}
	if !strings.Contains(err.Error(), "joins") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := g.Generate(-1); err == nil {
		t.Fatal("negative join count must fail")
	}
	// The generator stays usable after a failed request.
	if q, err := g.Generate(2); err != nil || q.NumJoins() != 2 {
		t.Fatalf("generator broken after failure: q=%v err=%v", q, err)
	}
}

func TestQueryPanicsOnOversizedRequest(t *testing.T) {
	db := testutil.TinyDB()
	g := NewGenerator(db, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Query must keep its documented panic behaviour")
		}
	}()
	g.Query(len(db.Schema.Tables) + 5)
}

func TestRunParallelRecoversTaskPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		errs := RunEach(context.Background(), 50, workers, func(i int) error {
			if i == 7 {
				panic("chaos")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(errs[7], &pe) {
			t.Fatalf("workers=%d: errs[7] = %v, want *PanicError", workers, errs[7])
		}
		if pe.Index != 7 || pe.Value != "chaos" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: recovered %+v", workers, pe)
		}
	}
}

func TestRunParallelCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	errs := RunEach(ctx, 100_000, 4, func(i int) error {
		if calls.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(errs[len(errs)-1], context.Canceled) {
		t.Fatalf("last task: err = %v, want context.Canceled", errs[len(errs)-1])
	}
	if c := calls.Load(); c == 100_000 {
		t.Fatal("pool ignored cancellation")
	}
}

func TestRunEachCollectsAllErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		errs := RunEach(context.Background(), 60, workers, func(i int) error {
			calls.Add(1)
			switch {
			case i%10 == 3:
				return boom
			case i%10 == 7:
				panic("chaos")
			}
			return nil
		})
		if c := calls.Load(); c != 60 {
			t.Fatalf("workers=%d: pool stopped early after %d calls", workers, c)
		}
		for i, err := range errs {
			switch {
			case i%10 == 3 && !errors.Is(err, boom):
				t.Fatalf("workers=%d: errs[%d] = %v, want boom", workers, i, err)
			case i%10 == 7:
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Index != i {
					t.Fatalf("workers=%d: errs[%d] = %v, want PanicError{Index:%d}", workers, i, err, i)
				}
			case i%10 != 3 && i%10 != 7 && err != nil:
				t.Fatalf("workers=%d: errs[%d] = %v, want nil", workers, i, err)
			}
		}
	}
}

func TestRunEachCancelledContextMarksRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := RunEach(ctx, 25, 4, func(i int) error { return nil })
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}
