// Command lpce-sql is a SQL front-end over a generated database: an
// interactive shell by default, a long-running multi-tenant HTTP server
// with -serve.
//
// Usage:
//
//	lpce-sql [-titles N] [-seed N] [-estimator histogram|lpce|lpce-r]
//	         [-models-in dir] [-serve addr]
//	         [-tenants a:1,b:2] [-rate-qps N] [-rate-burst N]
//
// Interactive shell commands:
//
//	SELECT COUNT(*) FROM ... ;      execute a query
//	EXPLAIN SELECT ...              show the chosen plan without executing
//	\tables                         list tables and row counts
//	\sample [joins]                 print a random generated query
//	\quit                           exit
//
// With -models-in, the lpce/lpce-r estimators load the trained model set
// file from a directory written by cmd/lpce-train instead of retraining at
// startup. -titles and -seed must match the scale and seed lpce-train used
// (tiny 400, small 2500, full 8000 titles); a set trained on any other
// database fails to load with modelio.ErrFingerprint.
//
// With -serve, the process becomes a resident server exposing POST /query,
// POST /explain, GET /healthz, GET /metrics, and POST /admin/models/swap,
// with per-tenant namespaces and admission control; SIGINT/SIGTERM drains
// in-flight queries before exiting. -rate-qps/-rate-burst arm a per-tenant
// token bucket: excess requests get HTTP 429 with a Retry-After hint.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/modelio"
	"github.com/lpce-db/lpce/internal/server"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command and returns its exit status. Flags that can be
// wrong are checked before the database is generated, so a typo fails at
// once instead of after set-up.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpce-sql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	titles := fs.Int("titles", 1500, "rows in the central title table")
	seed := fs.Int64("seed", 1, "random seed")
	estName := fs.String("estimator", "lpce-r", "histogram, lpce, or lpce-r")
	modelsIn := fs.String("models-in", "", "load trained models from the model set in this directory instead of training; -titles and -seed must match lpce-train's -scale (tiny 400, small 2500, full 8000) and -seed")
	serve := fs.String("serve", "", "serve HTTP on this address (e.g. :8080) instead of the interactive shell")
	tenants := fs.String("tenants", "default:1", "comma-separated tenant:weight pairs for -serve")
	maxConcurrent := fs.Int64("max-concurrent", 8, "admission capacity in weight units for -serve")
	maxQueue := fs.Int("max-queue", 32, "admission wait-queue bound for -serve")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-query deadline for -serve")
	cacheCap := fs.Int("cache-cap", 65536, "per-tenant estimate-cache capacity for -serve (0 = 65536, negative = unbounded)")
	rateQPS := fs.Float64("rate-qps", 0, "per-tenant sustained request rate for -serve (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "per-tenant token-bucket burst depth for -serve (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *estName {
	case "histogram", "lpce", "lpce-r":
	default:
		fmt.Fprintf(stderr, "unknown -estimator %q (want histogram, lpce, or lpce-r)\n", *estName)
		return 2
	}
	tcs, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "generating database (titles=%d)...\n", *titles)
	db := datagen.Generate(datagen.Config{Titles: *titles, Seed: *seed})
	enc := encode.NewEncoder(db.Schema)

	est, refiner, set, err := buildEstimator(stdout, db, enc, *estName, *modelsIn, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *serve != "" {
		if err := runServer(stdout, db, enc, set, serveOptions{
			addr:          *serve,
			mode:          *estName,
			tenants:       tcs,
			maxConcurrent: *maxConcurrent,
			maxQueue:      *maxQueue,
			timeout:       *timeout,
			cacheCap:      *cacheCap,
			rateQPS:       *rateQPS,
			rateBurst:     *rateBurst,
		}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if err := runShell(stdout, os.Stdin, db, est, refiner, *seed); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// buildEstimator resolves -estimator/-models-in into the serving stack: the
// estimator, the optional refiner, and (for the model modes) the artifact
// set the server boots from. estName is one of the values realMain accepts.
func buildEstimator(w io.Writer, db *storage.Database, enc *encode.Encoder, estName, modelsIn string, seed int64) (cardest.Estimator, engine.Refiner, *modelio.Set, error) {
	if estName == "histogram" {
		return histogram.NewEstimator(db), nil, nil, nil
	}

	var set *modelio.Set
	if modelsIn != "" {
		fmt.Fprintf(w, "loading trained models from %s...\n", modelsIn)
		loaded, err := modelio.LoadSet(modelsIn, enc, db)
		if err != nil {
			return nil, nil, nil, err
		}
		set = loaded
	} else {
		fmt.Fprintln(w, "training LPCE models (a few seconds)...")
		gen := workload.NewGenerator(db, seed+1)
		samples, _ := core.CollectSamples(db, histogram.NewEstimator(db),
			gen.QueriesRange(180, 2, 6), 40_000_000)
		logMax := core.MaxLogCard(samples)
		cfg := core.TrainConfig{Hidden: 24, OutWidth: 32, Epochs: 20, NodeWise: true, Seed: seed}
		set = &modelio.Set{
			LPCEI: core.TrainLPCEI(core.LPCEIConfig{
				Teacher: cfg,
				Student: core.TrainConfig{Hidden: 10, OutWidth: 12, Epochs: 15, NodeWise: true, Seed: seed},
			}, enc, samples, logMax),
		}
		if estName == "lpce-r" {
			set.Refiner = core.TrainRefiner(core.RefinerConfig{Kind: core.RefinerFull, Base: cfg, AdjustEpochs: 10},
				enc, db, samples, logMax)
		}
	}
	if set.LPCEI == nil {
		return nil, nil, nil, fmt.Errorf("artifact set has no LPCE-I model")
	}
	est := &core.TreeEstimator{Label: "lpce-i", Model: set.LPCEI.Model, Enc: enc}
	// an untyped nil when there is no refiner: a nil *core.Refiner in the
	// interface would turn re-optimization on
	var refiner engine.Refiner
	if estName == "lpce-r" {
		if set.Refiner == nil {
			return nil, nil, nil, fmt.Errorf("estimator lpce-r needs a refiner artifact")
		}
		refiner = set.Refiner
	}
	return est, refiner, set, nil
}

type serveOptions struct {
	addr          string
	mode          string
	tenants       []server.TenantConfig
	maxConcurrent int64
	maxQueue      int
	timeout       time.Duration
	cacheCap      int
	rateQPS       float64
	rateBurst     int
}

// parseTenants parses "alpha:2,beta:1" (weight optional, default 1). It
// rejects empty and duplicate names itself, as server.New would, so the
// error comes before set-up.
func parseTenants(spec string) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		if name == "" {
			return nil, fmt.Errorf("empty tenant name in %q", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate tenant %q", name)
		}
		seen[name] = true
		tc := server.TenantConfig{Name: name, Weight: 1}
		if hasWeight {
			w, err := strconv.ParseInt(weightStr, 10, 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad tenant weight in %q", part)
			}
			tc.Weight = w
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants is empty")
	}
	return out, nil
}

// runServer runs the resident HTTP server until SIGINT/SIGTERM, then drains
// in-flight queries (30s grace) before exiting.
func runServer(w io.Writer, db *storage.Database, enc *encode.Encoder, set *modelio.Set, opts serveOptions) error {
	tcs := opts.tenants
	// -rate-qps/-rate-burst apply uniformly to every tenant: the flags set a
	// per-tenant bucket, not a shared one, matching server.TenantConfig.
	for i := range tcs {
		tcs[i].RateQPS = opts.rateQPS
		tcs[i].RateBurst = opts.rateBurst
	}
	srv, err := server.New(server.Config{
		DB:             db,
		Enc:            enc,
		Mode:           opts.mode,
		Models:         set,
		Tenants:        tcs,
		MaxConcurrent:  opts.maxConcurrent,
		MaxQueue:       opts.maxQueue,
		DefaultTimeout: opts.timeout,
		CacheCapacity:  opts.cacheCap,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: opts.addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	names := make([]string, len(tcs))
	for i, tc := range tcs {
		names[i] = fmt.Sprintf("%s(w=%d)", tc.Name, tc.Weight)
	}
	fmt.Fprintf(w, "serving on %s (mode=%s, tenants=%s); Ctrl-C to drain and exit\n",
		opts.addr, opts.mode, strings.Join(names, ","))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		_ = srv.Close(context.Background())
		return err
	case s := <-sig:
		fmt.Fprintf(w, "\n%v: draining...\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	if err := srv.Close(ctx); err != nil {
		fmt.Fprintf(w, "drain cut short: %v\n", err)
	} else {
		fmt.Fprintln(w, "drained cleanly")
	}
	return nil
}

// runShell is the interactive loop over in (stdin). It returns a read error
// of in, if any.
func runShell(w io.Writer, in io.Reader, db *storage.Database, est cardest.Estimator, refiner engine.Refiner, seed int64) error {
	eng := engine.New(db)
	gen := workload.NewGenerator(db, seed+1)
	fmt.Fprintf(w, "ready (estimator=%s). Try \\tables, \\sample 4, or a SELECT COUNT(*) query.\n", est.Name())

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(w, "lpce> ")
		if !sc.Scan() {
			fmt.Fprintln(w)
			if err := sc.Err(); err != nil {
				return fmt.Errorf("stdin: %w", err)
			}
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return nil
		case line == `\tables`:
			for _, t := range db.Tables {
				fmt.Fprintf(w, "  %-18s %8d rows  %d columns\n", t.Meta.Name, t.NumRows(), len(t.Meta.Columns))
			}
		case strings.HasPrefix(line, `\sample`):
			joins := 4
			if fields := strings.Fields(line); len(fields) > 1 {
				if n, err := strconv.Atoi(fields[1]); err == nil {
					joins = n
				}
			}
			fmt.Fprintln(w, " ", gen.Query(joins).SQL())
		case strings.HasPrefix(strings.ToUpper(line), "EXPLAIN"):
			sql := strings.TrimSpace(line[len("EXPLAIN"):])
			q, err := sqlparse.Parse(db.Schema, sql)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			out, err := eng.Explain(q, est)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			fmt.Fprintln(w, out)
		default:
			q, err := sqlparse.Parse(db.Schema, line)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			out, _, err := eng.ExplainAnalyze(q, engine.Config{
				Estimator: est, Refiner: refiner, Budget: 500_000_000,
			})
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			fmt.Fprintln(w, out)
		}
	}
}
