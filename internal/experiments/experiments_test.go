package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	envOnce sync.Once
	tinyEnv *Env
)

func env(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { tinyEnv = Setup(ScaleTiny, 7) })
	return tinyEnv
}

func TestSetupEnvironment(t *testing.T) {
	e := env(t)
	if len(e.Samples) < 20 {
		t.Fatalf("only %d training samples", len(e.Samples))
	}
	if e.LPCEI == nil || e.Refiner == nil || e.TLSTM == nil || e.FlowLoss == nil || e.MSCN == nil {
		t.Fatal("missing trained models")
	}
	// LPCE-R re-plans at LPCE-I's width: its content module is the
	// distilled student itself, not a copy and not the teacher.
	if e.Refiner.Content != e.LPCEI.Model {
		t.Fatal("the refiner's content module is not LPCE-I's student")
	}
	if h := e.LPCEI.Model.Cfg.Hidden; e.Refiner.CardM.Cfg.Hidden != h || e.Refiner.Refine.Cfg.Hidden != h {
		t.Fatalf("refiner modules at widths card=%d refine=%d, LPCE-I at %d",
			e.Refiner.CardM.Cfg.Hidden, e.Refiner.Refine.Cfg.Hidden, h)
	}
	if len(e.JoinLow) == 0 || len(e.JoinHigh) == 0 || len(e.JoinTiny) == 0 {
		t.Fatal("missing test sets")
	}
	if e.LogMax <= 0 {
		t.Fatal("LogMax not set")
	}
	if e.TrainTime <= 0 || e.CollectStats.Duration <= 0 {
		t.Fatal("timings not recorded")
	}
}

func TestPercentileAndMean(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if Percentile(vals, 0) != 1 || Percentile(vals, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(vals, 50); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(vals, 25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
	if Mean(vals) != 3 {
		t.Fatal("mean wrong")
	}
	if math.Abs(GeoMean([]float64{1, 100})-10) > 1e-9 {
		t.Fatal("geomean wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("x", "y")
	s := tab.String()
	for _, frag := range []string{"T\n", "a", "bb", "x", "y", "--"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestFormatters(t *testing.T) {
	if FmtF(math.NaN()) != "-" || FmtPct(math.NaN()) != "-" || FmtDur(math.NaN()) != "-" {
		t.Fatal("NaN formatting")
	}
	if FmtDur(0.5e-3) != "500µs" {
		t.Fatalf("FmtDur = %s", FmtDur(0.5e-3))
	}
	if FmtDur(0.25) != "250.0ms" {
		t.Fatalf("FmtDur = %s", FmtDur(0.25))
	}
	if FmtDur(2.5) != "2.50s" {
		t.Fatalf("FmtDur = %s", FmtDur(2.5))
	}
	if FmtPct(0.5) != "50.0%" {
		t.Fatalf("FmtPct = %s", FmtPct(0.5))
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": ScaleTiny, "small": ScaleSmall, "full": ScaleFull} {
		if got, err := ParseScale(s); err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"", "x", "smal", "Small", "FULL"} {
		_, err := ParseScale(s)
		if err == nil || !strings.Contains(err.Error(), "tiny, small or full") {
			t.Fatalf("ParseScale(%q) err = %v, want one naming the valid scales", s, err)
		}
	}
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" || ScaleTiny.String() != "tiny" {
		t.Fatal("Scale.String")
	}
}

func TestTable1Shape(t *testing.T) {
	e := env(t)
	r := Table1(e)
	if len(r.Rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MeanQError < 1 || math.IsNaN(row.MeanQError) {
			t.Fatalf("%s: invalid q-error %v", row.Name, row.MeanQError)
		}
		if row.InferTimeSec <= 0 {
			t.Fatalf("%s: no inference time", row.Name)
		}
	}
	if !strings.Contains(r.Render(), "LPCE-I") {
		t.Fatal("render missing LPCE-I")
	}
	// the central trade-off: data-access estimators must cost more per
	// estimate than the cheapest query-driven model. (At Tiny scale the
	// sampling walk counts are shrunk, so we assert against MSCN; the
	// LPCE-I ordering is checked in the Small/Full-scale runs recorded in
	// EXPERIMENTS.md.)
	var mscn, slowest float64
	for _, row := range r.Rows {
		if row.Name == "MSCN" {
			mscn = row.InferTimeSec
		}
		if row.DataAccess && row.InferTimeSec > slowest {
			slowest = row.InferTimeSec
		}
	}
	if slowest <= mscn {
		t.Fatalf("data-driven estimators (max %v) should be slower than MSCN (%v)", slowest, mscn)
	}
}

func TestFigure1Shape(t *testing.T) {
	e := env(t)
	r := Figure1(e)
	if len(r.Series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range r.Series {
		if s.P5 > s.Median || s.Median > s.P95 {
			t.Fatalf("%s joins=%d: percentiles not ordered", s.Estimator, s.Joins)
		}
	}
	if !strings.Contains(r.Render(), "Joins") {
		t.Fatal("render broken")
	}
}

func TestEndToEndSuiteAndDerivedFigures(t *testing.T) {
	e := env(t)
	suite, err := e.RunSuite(e.JoinHighLabel, e.JoinHigh[:3])
	if err != nil {
		t.Fatal(err)
	}
	if suite.Runs[0].Name != "PostgreSQL" {
		t.Fatal("first run must be the PostgreSQL baseline")
	}
	if len(suite.Runs) != 10 {
		t.Fatalf("runs = %d, want 10", len(suite.Runs))
	}
	// all configurations must compute identical counts per query
	for i := range suite.Queries {
		base := suite.Runs[0].Results[i]
		if base.TimedOut {
			continue
		}
		for _, run := range suite.Runs[1:] {
			r := run.Results[i]
			if r.TimedOut {
				continue
			}
			if r.Count != base.Count {
				t.Fatalf("%s query %d: count %d != postgres %d", run.Name, i, r.Count, base.Count)
			}
		}
	}

	t2 := Table2(suite)
	if len(t2.Rows) != 9 {
		t.Fatalf("Table 2 rows = %d", len(t2.Rows))
	}
	if !strings.Contains(t2.Render(), "LPCE-R") {
		t.Fatal("Table 2 render")
	}
	f11 := Figure11(suite)
	if len(f11.Totals) != 3 {
		t.Fatal("Figure 11 totals")
	}
	_ = f11.Render()
	f12 := Figure12(suite)
	if len(f12.Rows) != 10 {
		t.Fatal("Figure 12 rows")
	}
	for _, row := range f12.Rows {
		if row.ExecSec < 0 || row.InferSec < 0 {
			t.Fatal("negative decomposition")
		}
	}
	_ = f12.Render()
	f13 := Figure13(suite)
	if len(f13.Series) != 9 {
		t.Fatal("Figure 13 series")
	}
	_ = f13.Render()
	f14 := Figure14(suite)
	_ = f14.Render()
	f15 := Figure15(suite)
	if len(f15.Rows) != 10 {
		t.Fatal("Figure 15 rows")
	}
	_ = f15.Render()
}

func TestRefinementExperiments(t *testing.T) {
	e := env(t)
	samples := e.CollectTestSamples(e.JoinHigh[:4])
	if len(samples) == 0 {
		t.Fatal("no test samples")
	}
	f16 := Figure16(e, "test", samples)
	if len(f16.Points) == 0 {
		t.Fatal("Figure 16 empty")
	}
	for _, p := range f16.Points {
		if p.MeanQError < 1 || math.IsNaN(p.MeanQError) {
			t.Fatalf("invalid q-error at k=%d", p.ExecutedOps)
		}
	}
	_ = f16.Render()

	t3 := Table3(e, samples)
	variants := map[string]bool{}
	for _, row := range t3.Rows {
		variants[row.Variant] = true
		if row.P50 > row.P95 {
			t.Fatal("Table 3 percentiles not ordered")
		}
	}
	for _, v := range []string{"LPCE-R", "LPCE-R-Single", "LPCE-R-Two"} {
		if !variants[v] {
			t.Fatalf("Table 3 missing variant %s", v)
		}
	}
	_ = t3.Render()
}

func TestModelAblations(t *testing.T) {
	e := env(t)
	f1920 := Figure19And20(e)
	if len(f1920.Rows) != 4 {
		t.Fatalf("Figure 19/20 rows = %d", len(f1920.Rows))
	}
	byName := map[string]VariantRow{}
	for _, row := range f1920.Rows {
		byName[row.Name] = row
		if row.InferTimeSec <= 0 || row.Weights == 0 {
			t.Fatalf("%s: missing measurements", row.Name)
		}
	}
	// structural claims: SRU is smaller than LSTM at equal width; the
	// distilled student is much smaller than the teacher
	if byName["LPCE-S"].Weights >= byName["LPCE-T"].Weights {
		t.Fatal("SRU model should have fewer weights than LSTM")
	}
	// at Tiny scale the input-layer weights dominate so compression is
	// modest; Small/Full scales reach the paper's >10x
	if byName["LPCE-I"].Weights*2 > byName["LPCE-S"].Weights {
		t.Fatal("distilled model should be >=2x smaller")
	}
	_ = f1920.Render()

	f21 := Figure21(e)
	if len(f21.Rows) != 4 {
		t.Fatalf("Figure 21 rows = %d", len(f21.Rows))
	}
	_ = f21.Render()
}

func TestFigure17FindsExample(t *testing.T) {
	e := env(t)
	r := Figure17(e)
	out := r.Render()
	if r.Found {
		if r.With.Count != r.Without.Count {
			t.Fatalf("COUNT(*) with re-optimization %d, without %d", r.With.Count, r.Without.Count)
		}
		for _, frag := range []string{"query:", "T_P", "T_E", "COUNT(*)", "initial plan", "final plan"} {
			if !strings.Contains(out, frag) {
				t.Fatalf("render missing %q", frag)
			}
		}
	} else if !strings.Contains(out, "no query triggered") {
		t.Fatal("not-found render broken")
	}
}

func TestFigure18Sweep(t *testing.T) {
	e := env(t)
	r := Figure18(e)
	if len(r.Points) < 2 {
		t.Fatalf("Figure 18 points = %d", len(r.Points))
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Samples <= r.Points[i-1].Samples {
			t.Fatal("sample counts not increasing")
		}
		if r.Points[i].CollectSec < r.Points[i-1].CollectSec {
			t.Fatal("collection time should grow with samples")
		}
	}
	_ = r.Render()
}
