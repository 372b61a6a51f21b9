// Package reopt implements the query re-optimization controller of paper
// §6.2: it observes the executor's materialization checkpoints, compares
// each materialized sub-plan's actual cardinality against the optimizer's
// estimate, and — when the q-error exceeds the trigger threshold — pauses
// execution so the engine can refine the remaining estimates with LPCE-R
// and re-plan from the materialized intermediates.
package reopt

import (
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
)

// Policy is the re-optimization trigger rule.
type Policy struct {
	// QErrThreshold triggers re-optimization when the q-error between a
	// materialized sub-plan's actual and estimated cardinality exceeds it
	// (paper: empirically 50).
	QErrThreshold float64
	// MaxReopts bounds the number of re-optimizations per query (paper: 3)
	// so difficult queries the model never learned do not thrash.
	MaxReopts int
	// MinRemainingCostFrac is the cost-aware extension the paper leaves as
	// future work ("re-optimization should be triggered when its execution
	// time reduction outweighs T_R"): a trigger is suppressed unless the
	// estimated cost of the not-yet-executed part of the plan is at least
	// this fraction of the whole plan's estimated cost. Zero disables the
	// check (the paper's plain threshold rule).
	MinRemainingCostFrac float64
}

// DefaultPolicy returns the paper's settings.
func DefaultPolicy() Policy { return Policy{QErrThreshold: 50, MaxReopts: 3} }

// Executed records one executed sub-plan: the subtree, with true
// cardinalities stamped by the executor, and its exact output cardinality.
// It is what a re-planning refiner receives.
type Executed struct {
	Node *plan.Node
	Card float64
}

// Mask returns the table subset the executed sub-plan covers.
func (e Executed) Mask() query.BitSet { return e.Node.Tables }

// Controller implements exec.Controller across the (possibly several)
// executions of one query. It persists between re-optimizations: the
// re-optimization count is cumulative and materialized intermediates
// accumulate.
type Controller struct {
	Policy Policy
	Reopts int
	mats   map[query.BitSet]*plan.Materialized
	execs  []Executed
	// planCost is the current plan's total estimated cost, set by the
	// engine before each execution for the cost-aware trigger.
	planCost float64
	// Trace, when non-nil, receives one obs.ReoptEvent per checkpoint —
	// triggered or suppressed — so a workload's re-optimization behaviour
	// can be audited after the fact.
	Trace *obs.QueryTrace
}

// SetPlan informs the controller of the plan about to execute (used by the
// cost-aware trigger rule).
func (c *Controller) SetPlan(root *plan.Node) {
	if root != nil {
		c.planCost = root.EstCost
	}
}

// NewController returns a controller with the given policy.
func NewController(p Policy) *Controller {
	return &Controller{Policy: p, mats: make(map[query.BitSet]*plan.Materialized)}
}

// OnMaterialized implements exec.Controller.
// The row set is kept as it is, without a copy: it becomes the
// intermediate a re-optimized plan scans.
func (c *Controller) OnMaterialized(node *plan.Node, rows plan.Rows) error {
	if node.Op == plan.MatScan {
		return nil // replaying an already-checked intermediate
	}
	c.mats[node.Tables] = &plan.Materialized{Tables: node.Tables, Rows: rows}
	c.execs = append(c.execs, Executed{Node: node, Card: float64(rows.N)})

	ev := obs.ReoptEvent{
		Op:         node.Op.String(),
		Mask:       node.Tables,
		EstRows:    node.EstCard,
		ActualRows: float64(rows.N),
	}
	if node.EstCard > 0 {
		ev.QError = obs.QError(float64(rows.N), node.EstCard)
	}
	suppress := func(reason string) error {
		ev.Suppressed = reason
		c.Trace.AddEvent(ev)
		return nil
	}
	if c.Reopts >= c.Policy.MaxReopts {
		return suppress("max-reopts")
	}
	if node.EstCard <= 0 {
		return suppress("no-estimate")
	}
	if ev.QError <= c.Policy.QErrThreshold {
		return suppress("below-threshold")
	}
	// cost-aware suppression: if almost all estimated work is already done,
	// re-planning cannot pay for its own overhead
	if c.Policy.MinRemainingCostFrac > 0 && c.planCost > 0 {
		remaining := 1 - node.EstCost/c.planCost
		if remaining < c.Policy.MinRemainingCostFrac {
			return suppress("remaining-cost")
		}
	}
	c.Reopts++
	ev.Triggered = true
	c.Trace.AddEvent(ev)
	return &exec.ReoptSignal{Node: node, Actual: rows.N}
}

// Materialized returns the accumulated intermediates for plan resumption.
func (c *Controller) Materialized() map[query.BitSet]*plan.Materialized { return c.mats }

// ExecutedSubs returns the executed sub-plans recorded so far, most recent
// last. Node pointers reference the plans they were part of, with true
// cardinalities stamped by the executor.
func (c *Controller) ExecutedSubs() []Executed { return c.execs }

// Release frees every accumulated materialized intermediate and executed
// sub-plan record. The engine calls it when a query fails or is cancelled —
// including a cancellation that lands mid-replan — so buffered rows never
// outlive the query that materialized them. The controller is reusable
// afterwards, though the engine never does.
func (c *Controller) Release() {
	for _, m := range c.mats { //detlint:ignore — clears every entry; order-independent
		m.Rows = plan.Rows{}
	}
	c.mats = make(map[query.BitSet]*plan.Materialized)
	c.execs = nil
}
