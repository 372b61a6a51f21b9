package obs

import (
	"sort"
	"time"
)

// OpAggregate summarises every execution of one physical operator type
// across a workload: how many instances ran, the rows they produced, the
// wall time they absorbed and the executor work charged in it (both self
// figures: unlike OpStats, without their children's), and how the
// optimizer's estimates distributed against reality.
type OpAggregate struct {
	Op          string      `json:"op"`
	Count       int         `json:"count"`
	Rows        int64       `json:"rows"`
	WallSeconds float64     `json:"wall_seconds"`
	Work        int64       `json:"work"`
	QError      HistSummary `json:"q_error"`
}

// PhaseSummary is the latency distribution of one end-to-end phase (the
// paper's T_P, T_I, T_R, T_E, and their sum) in seconds.
type PhaseSummary struct {
	Phase   string      `json:"phase"`
	Seconds HistSummary `json:"seconds"`
}

// Report is the aggregated, JSON-serializable view of everything an
// Observer collected: workload counts, phase latency distributions,
// per-operator runtime stats, every re-optimization event, the CE
// evaluation tables, and the raw metrics snapshot.
type Report struct {
	Queries  int `json:"queries"`
	Timeouts int `json:"timeouts"`
	Reopts   int `json:"reopts"`

	Phases    []PhaseSummary      `json:"phases"`
	Operators []OpAggregate       `json:"operators"`
	Events    []ReoptEvent        `json:"reopt_events,omitempty"`
	CE        []CEEstimatorReport `json:"ce_evaluation,omitempty"`
	Metrics   MetricsSnapshot     `json:"metrics"`
}

// Report aggregates the published query traces, the CE evaluation, and the
// metrics registry into one serializable report. Returns nil on a nil
// observer.
func (o *Observer) Report() *Report {
	if o == nil {
		return nil
	}
	traces := o.Traces()
	rep := &Report{Queries: len(traces)}

	phases := []struct {
		name string
		get  func(*QueryTrace) time.Duration
	}{
		{"plan", func(t *QueryTrace) time.Duration { return t.PlanTime }},
		{"infer", func(t *QueryTrace) time.Duration { return t.InferTime }},
		{"reopt", func(t *QueryTrace) time.Duration { return t.ReoptTime }},
		{"exec", func(t *QueryTrace) time.Duration { return t.ExecTime }},
		{"total", func(t *QueryTrace) time.Duration {
			return t.PlanTime + t.InferTime + t.ReoptTime + t.ExecTime
		}},
	}
	phaseHists := make([]*Histogram, len(phases))
	for i := range phaseHists {
		phaseHists[i] = &Histogram{}
	}

	type opAgg struct {
		count int
		rows  int64
		wall  time.Duration
		work  int64
		qerr  *Histogram
	}
	ops := make(map[string]*opAgg)
	agg := func(op string) *opAgg {
		a, ok := ops[op]
		if !ok {
			a = &opAgg{qerr: &Histogram{}}
			ops[op] = a
		}
		return a
	}

	for _, t := range traces {
		if t.TimedOut {
			rep.Timeouts++
		}
		for i, ph := range phases {
			phaseHists[i].Observe(ph.get(t).Seconds())
		}
		for _, ev := range t.Events {
			if ev.Triggered {
				rep.Reopts++
			}
			rep.Events = append(rep.Events, ev)
		}
		for _, rd := range t.Rounds {
			for i, s := range rd.Ops {
				a := agg(s.Op)
				a.count++
				a.rows += s.Rows
				a.wall += s.Wall
				a.work += s.Work
				if q := s.QError(); q > 0 {
					a.qerr.Observe(q)
				}
				// OpStats figures include the children's calls: take each
				// op's own out of its parent's, leaving self figures
				if p := parent(rd.Ops, i); p >= 0 {
					pa := agg(rd.Ops[p].Op)
					pa.wall -= s.Wall
					pa.work -= s.Work
				}
			}
		}
	}

	for i, ph := range phases {
		rep.Phases = append(rep.Phases, PhaseSummary{Phase: ph.name, Seconds: phaseHists[i].Summary()})
	}
	names := make([]string, 0, len(ops))
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := ops[name]
		rep.Operators = append(rep.Operators, OpAggregate{
			Op: name, Count: a.count, Rows: a.rows,
			WallSeconds: a.wall.Seconds(), Work: a.work, QError: a.qerr.Summary(),
		})
	}
	rep.CE = o.CE().Report()
	rep.Metrics = o.Registry().Snapshot()
	return rep
}

// parent returns the index of op i's parent in its round, or -1 for the
// root: the op whose mask is the smallest proper superset of op i's. An
// operator's ancestors are the ops whose masks strictly contain its own, so
// an op's children are the ops whose masks are the largest proper subsets
// of its mask.
func parent(ops []OpStats, i int) int {
	m, p := ops[i].Mask, -1
	for j, o := range ops {
		if o.Mask != m && o.Mask&m == m && (p < 0 || o.Mask.Count() < ops[p].Mask.Count()) {
			p = j
		}
	}
	return p
}
