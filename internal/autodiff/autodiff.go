// Package autodiff implements a small tape-based reverse-mode automatic
// differentiation engine over dense vectors. It is the substrate for every
// learned estimator in the repository (LPCE-I, LPCE-R, MSCN, TLSTM,
// Flow-Loss): each forward pass builds a tape of recorded operations, and
// Backward replays the tape in reverse, accumulating gradients into the
// activations and, through the nn layers, into model parameters.
//
// The engine deliberately supports only what tree-structured recurrent
// estimators need — vector activations, matrix-vector products, elementwise
// arithmetic, the sigmoid/tanh/ReLU activations, concatenation, and scalar
// reductions — which keeps it easy to audit and fast at LPCE's model sizes.
//
// Every product that feeds a sum is converted to float64 first, so the
// compiler cannot fuse the two into one rounding (arm64 would) and gradients
// do not depend on the CPU.
package autodiff

import (
	"fmt"
	"math"

	"github.com/lpce-db/lpce/internal/tensor"
)

// Node is a vector activation with its gradient. Nodes are created by a Tape
// and must not be shared across tapes.
type Node struct {
	Data tensor.Vec
	Grad tensor.Vec
}

// Len returns the vector length of the node.
func (n *Node) Len() int { return len(n.Data) }

// Scalar returns the single element of a length-1 node.
func (n *Node) Scalar() float64 {
	if len(n.Data) != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on length-%d node", len(n.Data)))
	}
	return n.Data[0]
}

// Tape records the operations of one forward pass. Calling Backward runs the
// recorded closures in reverse order. A Tape is not safe for concurrent use;
// training goroutines each own their tape.
type Tape struct {
	steps []func()
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewNode allocates a fresh node of length n with zeroed data and gradient.
func (t *Tape) NewNode(n int) *Node {
	return &Node{Data: tensor.NewVec(n), Grad: tensor.NewVec(n)}
}

// Input creates a leaf node holding a copy of data. Inputs receive gradients
// but have no backward step of their own.
func (t *Tape) Input(data tensor.Vec) *Node {
	n := t.NewNode(len(data))
	copy(n.Data, data)
	return n
}

// Const creates a leaf node whose gradient is ignored.
func (t *Tape) Const(data tensor.Vec) *Node { return t.Input(data) }

func (t *Tape) record(step func()) { t.steps = append(t.steps, step) }

// Record appends a custom backward step to the tape. Layer packages (nn,
// treenn) use it to implement fused operations such as linear layers whose
// gradients flow into both activations and parameters.
func (t *Tape) Record(step func()) { t.record(step) }

// Backward seeds the gradient of the scalar output node with 1 and replays
// the tape in reverse.
func (t *Tape) Backward(out *Node) {
	if len(out.Data) != 1 {
		panic("autodiff: Backward requires a scalar output node")
	}
	out.Grad[0] = 1
	t.BackwardFrom()
}

// BackwardFrom replays the tape in reverse without seeding any gradient.
// Callers that accumulate losses into several scalar nodes can seed each
// node's Grad manually and then invoke BackwardFrom once.
func (t *Tape) BackwardFrom() {
	for i := len(t.steps) - 1; i >= 0; i-- {
		t.steps[i]()
	}
}

// Steps reports how many operations the tape recorded, used by tests to
// assert that incremental refinement reuses prior embeddings.
func (t *Tape) Steps() int { return len(t.steps) }

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	checkLen("Add", a, b)
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	t.record(func() {
		a.Grad.Add(out.Grad)
		b.Grad.Add(out.Grad)
	})
	return out
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	checkLen("Sub", a, b)
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	t.record(func() {
		a.Grad.Add(out.Grad)
		b.Grad.Axpy(-1, out.Grad)
	})
	return out
}

// Mul returns the elementwise (Hadamard) product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	checkLen("Mul", a, b)
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	t.record(func() {
		for i := range out.Grad {
			a.Grad[i] += float64(out.Grad[i] * b.Data[i])
			b.Grad[i] += float64(out.Grad[i] * a.Data[i])
		}
	})
	return out
}

// Scale returns alpha * a.
func (t *Tape) Scale(alpha float64, a *Node) *Node {
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = alpha * a.Data[i]
	}
	t.record(func() { a.Grad.Axpy(alpha, out.Grad) })
	return out
}

// AddScalar returns a + c applied elementwise.
func (t *Tape) AddScalar(c float64, a *Node) *Node {
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = a.Data[i] + c
	}
	t.record(func() { a.Grad.Add(out.Grad) })
	return out
}

// OneMinus returns 1 - a elementwise, the gate complement used by SRU and
// LSTM cells.
func (t *Tape) OneMinus(a *Node) *Node {
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = 1 - a.Data[i]
	}
	t.record(func() { a.Grad.Axpy(-1, out.Grad) })
	return out
}

// Sigmoid returns the logistic function applied elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = 1 / (1 + math.Exp(-a.Data[i]))
	}
	t.record(func() {
		for i := range out.Grad {
			a.Grad[i] += float64(out.Grad[i] * out.Data[i] * (1 - out.Data[i]))
		}
	})
	return out
}

// Tanh returns tanh applied elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	out := t.NewNode(a.Len())
	for i := range out.Data {
		out.Data[i] = math.Tanh(a.Data[i])
	}
	t.record(func() {
		for i := range out.Grad {
			a.Grad[i] += float64(out.Grad[i] * (1 - float64(out.Data[i]*out.Data[i])))
		}
	})
	return out
}

// ReLU returns max(0, a) applied elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	out := t.NewNode(a.Len())
	for i := range out.Data {
		if a.Data[i] > 0 {
			out.Data[i] = a.Data[i]
		}
	}
	t.record(func() {
		for i := range out.Grad {
			if a.Data[i] > 0 {
				a.Grad[i] += out.Grad[i]
			}
		}
	})
	return out
}

// Concat returns the concatenation of the inputs in order.
func (t *Tape) Concat(parts ...*Node) *Node {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	out := t.NewNode(total)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:off+p.Len()], p.Data)
		off += p.Len()
	}
	t.record(func() {
		off := 0
		for _, p := range parts {
			p.Grad.Add(out.Grad[off : off+len(p.Grad)])
			off += len(p.Grad)
		}
	})
	return out
}

// Mean returns the elementwise mean of the inputs, which must share a
// length. It implements the average pooling used by MSCN's set modules.
func (t *Tape) Mean(parts []*Node) *Node {
	if len(parts) == 0 {
		panic("autodiff: Mean of no nodes")
	}
	out := t.NewNode(parts[0].Len())
	inv := 1 / float64(len(parts))
	for _, p := range parts {
		checkLen("Mean", parts[0], p)
		out.Data.Axpy(inv, p.Data)
	}
	t.record(func() {
		for _, p := range parts {
			p.Grad.Axpy(inv, out.Grad)
		}
	})
	return out
}

// Sum returns the scalar sum of the elements of a.
func (t *Tape) Sum(a *Node) *Node {
	out := t.NewNode(1)
	for _, x := range a.Data {
		out.Data[0] += x
	}
	t.record(func() {
		for i := range a.Grad {
			a.Grad[i] += out.Grad[0]
		}
	})
	return out
}

// AbsDiffSum returns Σ|a_i - b_i|, the L1 distance used by the knowledge
// distillation hint loss (Eq. 4 of the paper). The subgradient at zero is 0.
func (t *Tape) AbsDiffSum(a, b *Node) *Node {
	checkLen("AbsDiffSum", a, b)
	out := t.NewNode(1)
	for i := range a.Data {
		out.Data[0] += math.Abs(a.Data[i] - b.Data[i])
	}
	t.record(func() {
		g := out.Grad[0]
		for i := range a.Data {
			switch d := a.Data[i] - b.Data[i]; {
			case d > 0:
				a.Grad[i] += g
				b.Grad[i] -= g
			case d < 0:
				a.Grad[i] -= g
				b.Grad[i] += g
			}
		}
	})
	return out
}

func checkLen(op string, a, b *Node) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("autodiff: %s length mismatch %d vs %d", op, len(a.Data), len(b.Data)))
	}
}
