package experiments

import (
	"fmt"
	"io"
	"time"
)

// Result is one rendered table or figure.
type Result interface{ Render() string }

// Group is one named set of experiments — a -experiment value of
// cmd/lpce-bench — and the results it renders, in order.
type Group struct {
	Name string
	Run  func(*Env) ([]Result, error)
}

// Groups lists every experiment group in the order RunAll runs them.
var Groups = []Group{
	{"table1", one(Table1)},
	{"figure1", one(Figure1)},
	{"endtoend", endToEnd},
	{"refinement", func(e *Env) ([]Result, error) {
		samples := e.CollectTestSamples(e.JoinHigh)
		return []Result{Figure16(e, e.JoinHighLabel, samples), Table3(e, samples)}, nil
	}},
	{"figure17", one(Figure17)},
	{"figure18", one(Figure18)},
	{"ablations", func(e *Env) ([]Result, error) {
		return []Result{Figure19And20(e), Figure21(e)}, nil
	}},
	// extensions beyond the paper (its §8 future-work directions)
	{"extensions", func(e *Env) ([]Result, error) {
		ext, err := ExtReopt(e, e.JoinHighLabel, e.JoinHigh)
		if err != nil {
			return nil, err
		}
		sweep, err := ExtTriggerSweep(e, e.JoinHighLabel, e.JoinHigh)
		if err != nil {
			return nil, err
		}
		return []Result{ext, sweep}, nil
	}},
	{"joblike", func(e *Env) ([]Result, error) {
		r, err := JobLike(e)
		if err != nil {
			return nil, err
		}
		return []Result{r}, nil
	}},
}

func one[R Result](f func(*Env) R) func(*Env) ([]Result, error) {
	return func(e *Env) ([]Result, error) { return []Result{f(e)}, nil }
}

// endToEnd runs the three test sets end to end: Figures 11, 12 and 14 and
// Table 2 on the low and high join sets, Figure 13 on the high one and
// Figure 15 on the tiny one.
func endToEnd(e *Env) ([]Result, error) {
	low, err := e.RunSuite(e.JoinLowLabel, e.JoinLow)
	if err != nil {
		return nil, err
	}
	high, err := e.RunSuite(e.JoinHighLabel, e.JoinHigh)
	if err != nil {
		return nil, err
	}
	tiny, err := e.RunSuite(e.JoinTinyLabel, e.JoinTiny)
	if err != nil {
		return nil, err
	}
	return []Result{
		Figure11(low), Figure11(high),
		Table2(low), Table2(high),
		Figure12(low), Figure12(high),
		Figure13(high),
		Figure14(low), Figure14(high),
		Figure15(tiny),
	}, nil
}

// RunAll executes every experiment group in order, streaming rendered
// tables to w. It is the engine behind `lpce-bench -experiment=all` and the
// EXPERIMENTS.md regeneration.
func RunAll(e *Env, w io.Writer) error {
	fmt.Fprintf(w, "LPCE experiment suite — scale=%s seed=%d\n", e.Scale, e.Seed)
	fmt.Fprintf(w, "database: %d tables, %d total rows; training samples: %d (collection %s, model training %s)\n",
		len(e.DB.Tables), e.DB.TotalRows(), len(e.Samples),
		e.CollectStats.Duration.Round(time.Millisecond), e.TrainTime.Round(time.Millisecond))
	fmt.Fprintf(w, "test sets: %s, %s, %s (%d queries each)\n\n",
		e.JoinTinyLabel, e.JoinLowLabel, e.JoinHighLabel, e.P.testQueries)
	for _, g := range Groups {
		rs, err := g.Run(e)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Fprintln(w, r.Render())
		}
	}
	return nil
}
