package experiments

import (
	"fmt"
	"io"
	"time"
)

// RunAll executes every experiment in paper order, streaming rendered
// tables to w. It is the engine behind cmd/lpce-bench and the EXPERIMENTS.md
// regeneration.
func RunAll(e *Env, w io.Writer) error {
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	logf("LPCE experiment suite — scale=%s seed=%d", e.Scale, e.Seed)
	logf("database: %d tables, %d total rows; training samples: %d (collection %s, model training %s)",
		len(e.DB.Tables), e.DB.TotalRows(), len(e.Samples),
		e.CollectStats.Duration.Round(time.Millisecond), e.TrainTime.Round(time.Millisecond))
	logf("test sets: %s, %s, %s (%d queries each)\n",
		e.JoinTinyLabel, e.JoinLowLabel, e.JoinHighLabel, e.P.testQueries)

	logf("%s", Table1(e).Render())
	logf("%s", Figure1(e).Render())

	suiteLow, err := e.RunSuite(e.JoinLowLabel, e.JoinLow)
	if err != nil {
		return err
	}
	suiteHigh, err := e.RunSuite(e.JoinHighLabel, e.JoinHigh)
	if err != nil {
		return err
	}
	suiteTiny, err := e.RunSuite(e.JoinTinyLabel, e.JoinTiny)
	if err != nil {
		return err
	}

	logf("%s", Figure11(suiteLow).Render())
	logf("%s", Figure11(suiteHigh).Render())
	logf("%s", Table2(suiteLow).Render())
	logf("%s", Table2(suiteHigh).Render())
	logf("%s", Figure12(suiteLow).Render())
	logf("%s", Figure12(suiteHigh).Render())
	logf("%s", Figure13(suiteHigh).Render())
	logf("%s", Figure14(suiteLow).Render())
	logf("%s", Figure14(suiteHigh).Render())
	logf("%s", Figure15(suiteTiny).Render())

	testSamples := e.CollectTestSamples(e.JoinHigh)
	logf("%s", Figure16(e, e.JoinHighLabel, testSamples).Render())
	logf("%s", Figure17(e).Render())
	logf("%s", Figure18(e).Render())
	logf("%s", Figure19And20(e).Render())
	logf("%s", Figure21(e).Render())
	logf("%s", Table3(e, testSamples).Render())

	// extensions beyond the paper (its §8 future-work directions)
	ext, err := ExtReopt(e, e.JoinHighLabel, e.JoinHigh)
	if err != nil {
		return err
	}
	logf("%s", ext.Render())
	sweep, err := ExtTriggerSweep(e, e.JoinHighLabel, e.JoinHigh)
	if err != nil {
		return err
	}
	logf("%s", sweep.Render())

	job, err := JobLike(e)
	if err != nil {
		return err
	}
	logf("%s", job.Render())
	return nil
}
