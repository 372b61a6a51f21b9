package core

import (
	"math/rand"
	"runtime"
	"sync"

	"github.com/lpce-db/lpce/internal/nn"
)

// Shuffle streams. Every training phase draws its per-epoch sample order
// (and any auxiliary randomness) from its own stream so the phases stay
// independent of each other and of how many epochs ran before — see
// EpochOrder.
const (
	streamTrainLoop = iota + 1
	streamDistillHint
	streamDistillPredict
	streamAdjust
	streamAdjustPrefix
)

// mixSeed derives the RNG seed of one (stream, epoch) cell from the user
// seed with a splitmix64-style finalizer, so neighbouring cells produce
// unrelated sequences.
func mixSeed(seed int64, stream, epoch int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	z += 0xbf58476d1ce4e5b9 * uint64(stream+1)
	z += 0x94d049bb133111eb * uint64(epoch+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// epochRand returns the RNG of one (stream, epoch) cell.
func epochRand(seed int64, stream, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(mixSeed(seed, stream, epoch)))
}

// EpochOrder returns the deterministic minibatch sample order of one
// training epoch: a permutation of [0, n) that is a pure function of
// (seed, stream, epoch), so the order of epoch k does not depend on having
// replayed epochs 0..k-1 in the same process, nor on anything else that
// consumed randomness before it.
func EpochOrder(seed int64, stream, epoch, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	epochRand(seed, stream, epoch).Shuffle(n, func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return order
}

// Minibatch is the one training loop behind every SGD-trained model:
// minibatch Adam over n samples for cfg.Epochs epochs. It uses cfg's
// Epochs, Batch, LR, ClipNorm and Seed and nothing else.
//
// Each epoch visits the samples in EpochOrder(cfg.Seed, stream, epoch, n),
// calling onEpoch first when it is non-nil; the hook may change the
// optimizers' learning rate and prepare per-sample state for the epoch.
// Every slice of cfg.Batch samples then yields the mean gradient of its
// samples, computed by a gradient pool, and each master registry is
// clipped to cfg.ClipNorm and stepped by its own Adam optimizer.
//
// newWorker is called once per pool worker. It returns the per-sample
// function, which runs sample si's forward and backward passes with its
// loss seeds scaled by weight, and the replica registries that function
// accumulates into, parallel to master.
func Minibatch(cfg TrainConfig, stream, n int, master []*nn.Params,
	newWorker func() (sample func(si int, weight float64), grads []*nn.Params),
	onEpoch func(epoch int, order []int, opts []*nn.Adam)) {
	if n == 0 {
		return
	}
	opts := make([]*nn.Adam, len(master))
	for i := range opts {
		opts[i] = nn.NewAdam(cfg.LR)
	}
	pool := newGradPool(min(cfg.Batch, n), master, newWorker)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := EpochOrder(cfg.Seed, stream, epoch, n)
		if onEpoch != nil {
			onEpoch(epoch, order, opts)
		}
		for b := 0; b < n; b += cfg.Batch {
			end := min(b+cfg.Batch, n)
			pool.runBatch(order[b:end], 1/float64(end-b))
			for i, ps := range master {
				ps.ClipGrad(cfg.ClipNorm)
				opts[i].Step(ps)
			}
		}
	}
}

// gradWorker is one goroutine's training state: a closure computing one
// sample's gradients plus the private replica registries it writes them to.
type gradWorker struct {
	run   func(si int, weight float64)
	grads []*nn.Params
}

// gradPool fans a minibatch's per-sample forward/backward passes across
// min(GOMAXPROCS, batch) workers while keeping the accumulated gradient
// bit-identical for any worker count: every sample's backward pass runs
// against a private weight-sharing replica, its flat gradient is copied
// into the slot of the sample's position in the batch, and the slots are
// reduced into the master registries in ascending position order. The
// reduction order — not the execution order — determines the
// floating-point result, so scheduling is free to be arbitrary.
type gradPool struct {
	master []*nn.Params
	ws     []gradWorker
	bufs   [][]float64 // one flat gradient slot per batch position
}

func newGradPool(maxBatch int, master []*nn.Params, newWorker func() (func(si int, weight float64), []*nn.Params)) *gradPool {
	size := 0
	for _, ps := range master {
		size += ps.NumWeights()
	}
	p := &gradPool{master: master, bufs: make([][]float64, maxBatch)}
	for w := min(runtime.GOMAXPROCS(0), maxBatch); w > 0; w-- {
		run, grads := newWorker()
		if len(grads) != len(master) {
			panic("core: worker registries do not match master")
		}
		p.ws = append(p.ws, gradWorker{run: run, grads: grads})
	}
	for i := range p.bufs {
		p.bufs[i] = make([]float64, size)
	}
	return p
}

// runBatch computes the summed gradient of the samples at idxs into the
// master registries (which are zeroed first). weight scales each sample's
// loss seed.
func (p *gradPool) runBatch(idxs []int, weight float64) {
	var wg sync.WaitGroup
	for wi, w := range p.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := wi; pos < len(idxs); pos += len(p.ws) {
				for _, ps := range w.grads {
					ps.ZeroGrad()
				}
				w.run(idxs[pos], weight)
				off := 0
				for _, ps := range w.grads {
					off = ps.CopyGradTo(p.bufs[pos], off)
				}
			}
		}()
	}
	wg.Wait()
	// Ordered reduction: the only floating-point accumulation across
	// samples, fixed by batch position regardless of worker count.
	for _, ps := range p.master {
		ps.ZeroGrad()
	}
	for pos := range idxs {
		off := 0
		for _, ps := range p.master {
			off = ps.AddGradFrom(p.bufs[pos], off)
		}
	}
}
