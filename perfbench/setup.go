package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/serve"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

const (
	// viewName is the hospital report view every workload serves.
	viewName = "report"
	// smallSeed and smallDate fix the full-doc and fragment input: the
	// Table 1 small catalog at generator seed 1, report date d013. Its
	// document is 9.05 MB; the same catalog's other dates run 20–75 MB
	// and other generator seeds move d001 between 10 and 46 MB, so a
	// seeded date or catalog would make the run-to-run spread a measure
	// of the data, not of the code.
	smallSeed = 1
	smallDate = "d013"
	// tinySeed fixes the warm-rw catalog (datagen.Tiny); the workload
	// seed drives its request and write sequence.
	tinySeed = 1
	// setupRepeats is how many times each run builds its set-up; setup_s
	// is their median and the last one serves the run.
	setupRepeats = 9
	// maxUnfold is the server's default recursion limit, which direct
	// partial evaluations use too.
	maxUnfold = 64
)

// config is one benchmark run.
type config struct {
	seed   int64
	window time.Duration // how long the run measures
	// limit, when positive, replaces the time window by a fixed amount of
	// work (rounds, requests or reads, per workload), so that tests can
	// compare counts across runs exactly.
	limit  int
	traced bool
	dir    string // scratch directory for durable state, inside the checkout
}

// env is a set-up server with its sources.
type env struct {
	srv     *serve.Server
	reg     *source.Registry
	metrics *obs.Registry // the server's own instruments
	sources []*meteredSource
	closers []func()
}

func (e *env) close() {
	e.srv.Close()
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// quietLogger drops the server's per-request log lines.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// addSources registers every database of the catalog, wrapped in a
// metered source when the run is traced.
func (e *env) addSources(dbs []*relstore.Database, traced bool) {
	e.reg = source.NewRegistry()
	for _, db := range dbs {
		var s source.Source = source.NewLocal(db)
		if traced {
			m := &meteredSource{Source: s}
			e.sources = append(e.sources, m)
			s = m
		}
		e.reg.Add(s)
	}
}

// catalogDBs returns the catalog's databases in name order.
func catalogDBs(cat *relstore.Catalog) ([]*relstore.Database, error) {
	var dbs []*relstore.Database
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
	}
	return dbs, nil
}

// setupSmall builds the full-doc and fragment set-up: the small catalog
// in memory, a server without a refresher, the view prepared.
func setupSmall(cfg config, _ int) (*env, error) {
	dbs, err := catalogDBs(datagen.Generate(datagen.Small, smallSeed))
	if err != nil {
		return nil, err
	}
	e := &env{metrics: obs.NewRegistry()}
	e.addSources(dbs, cfg.traced)
	e.srv = serve.NewServer(e.reg, serve.Config{Metrics: e.metrics, Logger: quietLogger})
	if _, err := e.srv.AddSpec(viewName, hospital.SpecText); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupTiny builds the warm-rw set-up: the tiny catalog opened durably
// (WAL and snapshots under the run's scratch directory, fsync never), a
// server with POST /mutate and a refresher whose timer never fires within
// a run, the view prepared.
func setupTiny(cfg config, i int) (*env, error) {
	dbs, err := catalogDBs(datagen.Generate(datagen.Tiny, tinySeed))
	if err != nil {
		return nil, err
	}
	e := &env{metrics: obs.NewRegistry()}
	var durable []*relstore.Database
	for _, db := range dbs {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i), db.Name())
		ddb, p, err := source.OpenDurable(db.Name(), source.DurableOptions{Dir: dir, Fsync: relstore.FsyncNever},
			func() (*relstore.Database, error) { return db, nil })
		if err != nil {
			for _, c := range e.closers {
				c()
			}
			return nil, err
		}
		// The state lives in the run's scratch directory, removed at exit;
		// a failed final snapshot loses nothing the run needs.
		e.closers = append(e.closers, func() { _ = p.Close() })
		durable = append(durable, ddb)
	}
	// The metered wrapper would hide *source.Local from POST /mutate, so
	// warm-rw sources are never wrapped.
	e.addSources(durable, false)
	e.srv = serve.NewServer(e.reg, serve.Config{
		Metrics:         e.metrics,
		Logger:          quietLogger,
		AllowMutate:     true,
		RefreshInterval: time.Hour,
	})
	if _, err := e.srv.AddSpec(viewName, hospital.SpecText); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// timedSetup runs setup setupRepeats times and returns the last set-up
// with the median set-up time in seconds.
func timedSetup(cfg config, setup func(config, int) (*env, error)) (*env, float64, error) {
	var secs []float64
	var last *env
	for i := 0; i < setupRepeats; i++ {
		if last != nil {
			last.close()
		}
		t0 := time.Now()
		e, err := setup(cfg, i)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = e
	}
	return last, median(secs), nil
}

// grammars are the view's grammars rebuilt with public functions the way
// the server prepares them: sa is the constraint-compiled, decomposed
// grammar full documents evaluate, fa the guard-free decomposed grammar
// fragments evaluate.
type grammars struct {
	sa, fa   *aig.AIG
	planOpts sqlmini.PlanOptions
}

func buildGrammars(reg *source.Registry) (*grammars, error) {
	a, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		return nil, err
	}
	if err := a.Validate(reg); err != nil {
		return nil, err
	}
	planOpts := mediator.DefaultOptions().PlanOpts
	sa, err := specialize.CompileConstraints(a)
	if err != nil {
		return nil, err
	}
	if sa, err = specialize.DecomposeQueries(sa, reg, reg, planOpts); err != nil {
		return nil, err
	}
	fa, err := specialize.DecomposeQueries(a, reg, reg, planOpts)
	if err != nil {
		return nil, err
	}
	return &grammars{sa: sa, fa: fa, planOpts: planOpts}, nil
}

// scratchDir makes the run's scratch directory under the build directory
// of the checkout.
func scratchDir() (string, func(), error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
