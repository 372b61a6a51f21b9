package server

import (
	"fmt"
	"path/filepath"
	"strings"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/modelio"
)

// servingSet is the atomically-swapped model bundle: the estimator stack,
// the optional LPCE-R refiner, one bounded read-through estimate cache per
// tenant, and the overload rung, all built together so a single pointer load
// yields a mutually consistent set. Hot-swapping installs a
// fully-constructed servingSet with one atomic store: queries admitted
// before the swap finish on the old set, queries admitted after see the new
// one, and no query can ever observe the new estimator with the old refiner
// or a cache warmed by a different model (a "torn" set).
type servingSet struct {
	version string
	estName string
	// refiner is nil, never a nil *core.Refiner: the engine re-optimizes
	// whenever Config.Refiner is non-nil.
	refiner engine.Refiner
	// caches maps tenant name to that tenant's bounded estimate cache. The
	// caches wrap the same underlying estimator but are per-tenant, so hit
	// rates are attributable and one tenant's churn cannot evict another's
	// working set.
	caches map[string]*cardest.Cache
	// shed is the overload rung: when the health machine reports
	// StateOverloaded, Query and Explain plan with the histogram baseline
	// directly, bypassing the primary stack and its inference cost. A panic
	// on either rung fails only its query: the engine returns it as an
	// *engine.PanicError.
	shed *histogram.Estimator
}

// Estimator modes for Config.Mode.
const (
	ModeHistogram = "histogram" // PostgreSQL-style histogram baseline, no models
	ModeLPCE      = "lpce"      // LPCE-I initial estimates only
	ModeLPCER     = "lpce-r"    // LPCE-I + LPCE-R progressive refinement
)

// buildServingSet wires an estimator and optional refiner into a servingSet
// for the server's tenants: one bounded cache per tenant, registered on
// that tenant's metrics registry, and the histogram overload rung.
func (s *Server) buildServingSet(version string, est cardest.Estimator, refiner *core.Refiner) *servingSet {
	set := &servingSet{
		version: version,
		estName: est.Name(),
		caches:  make(map[string]*cardest.Cache, len(s.tenants)),
		shed:    histogram.NewEstimator(s.cfg.DB),
	}
	if refiner != nil {
		set.refiner = refiner
	}
	// Populates per-tenant cache maps keyed by the ranged key; no
	// order-dependent state is touched.
	for name, tn := range s.tenants { //detlint:ignore — order-independent build
		set.caches[name] = cardest.NewCache(est, tn.obs.Registry(), s.cfg.CacheCapacity)
	}
	return set
}

// setFromArtifacts builds the serving estimator stack for the configured
// mode from a loaded model set. A nil set is only valid in histogram mode.
func (s *Server) setFromArtifacts(version string, set *modelio.Set) (*servingSet, error) {
	mode := s.cfg.Mode
	if mode == "" {
		mode = ModeHistogram
		if set != nil {
			mode = ModeLPCER
		}
	}
	switch mode {
	case ModeHistogram:
		return s.buildServingSet(version, histogram.NewEstimator(s.cfg.DB), nil), nil
	case ModeLPCE, ModeLPCER:
		if set == nil || set.LPCEI == nil {
			return nil, fmt.Errorf("server: mode %q needs a model set", mode)
		}
		est := &core.TreeEstimator{Label: "lpce-i", Model: set.LPCEI.Model, Enc: s.cfg.Enc}
		var refiner *core.Refiner
		if mode == ModeLPCER {
			if set.Refiner == nil {
				return nil, fmt.Errorf("server: mode %q needs a refiner artifact", mode)
			}
			refiner = set.Refiner
		}
		return s.buildServingSet(version, est, refiner), nil
	default:
		return nil, fmt.Errorf("server: unknown estimator mode %q", mode)
	}
}

// SwapModels loads the versioned modelio model set file in dir and
// installs it with zero downtime: in-flight queries finish on the set they
// were admitted under, new admissions see the new set. The file's encoder
// fingerprint must match the serving schema — a mismatched set is rejected
// before anything is swapped, leaving the old set serving.
func (s *Server) SwapModels(dir, version string) (old, cur string, err error) {
	if s.cfg.Enc == nil {
		return "", "", fmt.Errorf("server: model swap needs an encoder (Config.Enc)")
	}
	set, err := modelio.LoadSet(dir, s.cfg.Enc, s.cfg.DB)
	if err != nil {
		return "", "", err
	}
	if version == "" {
		version = filepath.Base(strings.TrimRight(dir, "/"))
	}
	next, err := s.setFromArtifacts(version, set)
	if err != nil {
		return "", "", err
	}
	return s.install(next), version, nil
}

// installEstimator hot-swaps an arbitrary estimator stack (with optional
// refiner) under the given version label, bypassing artifact loading and
// its encoder fingerprint check: the package's soak tests swap
// fault-injected stacks in mid-load with it. The overload rung is always
// the histogram baseline.
func (s *Server) installEstimator(version string, est cardest.Estimator, refiner *core.Refiner) (old string) {
	return s.install(s.buildServingSet(version, est, refiner))
}

// install atomically publishes the new serving set and returns the previous
// version.
func (s *Server) install(next *servingSet) (old string) {
	prev := s.models.Swap(next)
	if prev != nil {
		old = prev.version
	}
	s.swaps.Inc()
	s.global.Registry().Gauge("server.model_generation").Set(float64(s.swaps.Value()))
	return old
}

// ModelVersion returns the currently-serving model version label.
func (s *Server) ModelVersion() string {
	if ms := s.models.Load(); ms != nil {
		return ms.version
	}
	return ""
}
