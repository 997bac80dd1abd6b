package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/xpath"
)

const (
	// rwPositions is how many patient positions per date the warm-rw
	// keyspace addresses, each as a subtree, a bill and a name: with the
	// full document, 61 keys per date and 610 over the tiny catalog's ten
	// dates. Against the server's 256-entry cache that makes about one
	// read in eight a miss, enough misses per run for steady figures.
	rwPositions = 20
	// zipfS skews reads towards the fixed popularity ranking of the keys.
	zipfS = 1.1
	// writeEvery is the number of reads between write pairs.
	writeEvery = 50
	// coldView is the view name cold probes register afresh.
	coldView = "cold"
	// refreshWait bounds the wait for a kicked refresh cycle.
	refreshWait = 60 * time.Second
)

// rwKey is one warm-rw read: a date's full document (path "") or a
// fragment of it.
type rwKey struct{ date, path string }

func (k rwKey) target() string {
	if k.path == "" {
		return "/views/" + viewName + "?date=" + k.date
	}
	return fragmentTarget(k.date, k.path)
}

// writeRow is a row the workload inserts and then deletes again. Rows are
// drawn absent from their table, with every declared key and foreign key
// kept, so each pair leaves the data as it found it.
type writeRow struct {
	db, table string
	values    []string
}

func (w writeRow) target(op string) string {
	return "/mutate?source=" + w.db + "&table=" + w.table + "&op=" + op + "&values=" + url.QueryEscape(strings.Join(w.values, ","))
}

// writePicker draws absent rows for DB1:visitInfo and DB2:cover.
type writePicker struct {
	ssns, trIDs, dates, policies []string
	visits, covers               map[string]bool
}

func newWritePicker(reg *source.Registry) (*writePicker, error) {
	table := func(db, name string) (*relstore.Table, error) {
		s, err := reg.Get(db)
		if err != nil {
			return nil, err
		}
		return s.(*source.Local).DB().Table(name)
	}
	col := func(t *relstore.Table, i int) []string {
		seen := map[string]bool{}
		var out []string
		for _, r := range t.Rows() {
			if v := r[i].AsString(); !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	keys := func(t *relstore.Table) map[string]bool {
		m := map[string]bool{}
		for _, r := range t.Rows() {
			m[r.Key()] = true
		}
		return m
	}
	patient, err := table("DB1", "patient")
	if err != nil {
		return nil, err
	}
	visit, err := table("DB1", "visitInfo")
	if err != nil {
		return nil, err
	}
	cover, err := table("DB2", "cover")
	if err != nil {
		return nil, err
	}
	billing, err := table("DB3", "billing")
	if err != nil {
		return nil, err
	}
	p := &writePicker{
		ssns:     col(patient, 0),
		trIDs:    col(billing, 0), // visitInfo(trId) references billing(trId)
		policies: col(patient, 2),
		visits:   keys(visit),
		covers:   keys(cover),
	}
	for i := 0; i < datagen.Tiny.Dates; i++ {
		p.dates = append(p.dates, datagen.Date(i))
	}
	return p, nil
}

// pick draws an absent row for DB1:visitInfo (visit) or DB2:cover.
func (p *writePicker) pick(rng *rand.Rand, visit bool) writeRow {
	for {
		var w writeRow
		var key string
		if visit {
			ssn, tr, d := p.ssns[rng.Intn(len(p.ssns))], p.trIDs[rng.Intn(len(p.trIDs))], p.dates[rng.Intn(len(p.dates))]
			w = writeRow{db: "DB1", table: "visitInfo", values: []string{ssn, tr, d}}
			key = relstore.Tuple{relstore.String(ssn), relstore.String(tr), relstore.String(d)}.Key()
			if p.visits[key] {
				continue
			}
		} else {
			pol, tr := p.policies[rng.Intn(len(p.policies))], p.trIDs[rng.Intn(len(p.trIDs))]
			w = writeRow{db: "DB2", table: "cover", values: []string{pol, tr}}
			key = relstore.Tuple{relstore.String(pol), relstore.String(tr)}.Key()
			if p.covers[key] {
				continue
			}
		}
		return w
	}
}

// judgeProbe is the traced run's direct ivm layer call: every key's
// dependency map, judged against each write's change set.
type judgeProbe struct {
	deps   []*ivm.Deps
	params []map[string]relstore.Value
	us     float64
	judged int
	irrel  int
}

func newJudgeProbe(e *env, g *grammars, keys []rwKey) (*judgeProbe, error) {
	full, err := ivm.Extract(g.sa, e.reg)
	if err != nil {
		return nil, err
	}
	jp := &judgeProbe{}
	for _, k := range keys {
		d := full
		if k.path != "" {
			p, err := xpath.Parse(k.path)
			if err != nil {
				return nil, err
			}
			comp, err := xpath.Compile(g.fa, p)
			if err != nil {
				return nil, err
			}
			if d, err = ivm.ExtractFiltered(g.fa, e.reg, comp.LiveScans(g.fa)); err != nil {
				return nil, err
			}
		}
		params, err := d.ParseParams(map[string]string{"date": k.date})
		if err != nil {
			return nil, err
		}
		jp.deps = append(jp.deps, d)
		jp.params = append(jp.params, params)
	}
	return jp, nil
}

func (jp *judgeProbe) judge(src source.Source, table string, since uint64) error {
	cs, err := src.ChangesSince(table, since)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, d := range jp.deps {
		if d.Judge(src.Name(), table, cs, jp.params[i]) == ivm.Unaffected {
			jp.irrel++
		}
	}
	jp.us += float64(time.Since(t0)) / float64(time.Microsecond)
	jp.judged += len(jp.deps)
	return nil
}

// runWarmRW is the warm-rw workload: the tiny catalog on durable sources,
// the result cache and refresher on. Reads are Zipf-skewed over full
// documents and fragments of every date; after every writeEvery-th read
// comes an insert/delete pair, each write followed by a kicked refresh
// cycle the client waits for. With a limit, the run is that many
// reads.
func runWarmRW(cfg config) (*outcome, error) {
	e, setupS, err := timedSetup(cfg, setupTiny)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := newOutcome()
	out.metrics["setup_s"] = setupS
	c := newClient(e.srv.Handler())
	rng := rand.New(rand.NewSource(cfg.seed))

	// The Zipf ranking is fixed: the ten full documents are the most
	// popular keys, then position 1's subtree, bill and name of every date,
	// then position 2's, and so on. The seed drives the draws from it, so
	// every seed reads the same mix of kinds and sizes.
	keys := make([]rwKey, 0, datagen.Tiny.Dates*(1+3*rwPositions))
	for d := 0; d < datagen.Tiny.Dates; d++ {
		keys = append(keys, rwKey{date: datagen.Date(d)})
	}
	for k := 1; k <= rwPositions; k++ {
		for d := 0; d < datagen.Tiny.Dates; d++ {
			for _, child := range []string{"", "/bill", "/pname"} {
				keys = append(keys, rwKey{datagen.Date(d), fmt.Sprintf("//patient[%d]%s", k, child)})
			}
		}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	picker, err := newWritePicker(e.reg)
	if err != nil {
		return nil, err
	}

	var jp *judgeProbe
	if cfg.traced {
		g, err := buildGrammars(e.reg)
		if err != nil {
			return nil, err
		}
		if jp, err = newJudgeProbe(e, g, keys); err != nil {
			return nil, err
		}
	}

	cycles := e.metrics.NewCounter("aig_serve_refresh_cycles_total", "")
	restamped := watch(e.metrics, "aig_serve_refresh_delta_total")
	rebuilt := watch(e.metrics, "aig_serve_refresh_full_total")
	evictions := watch(e.metrics, "aig_serve_cache_evictions_total")
	refreshSec := e.metrics.NewHistogram("aig_serve_refresh_seconds", "", obs.DurationBuckets)
	refreshSum0, refreshN0 := refreshSec.Sum(), refreshSec.Count()

	// awaitRefresh kicks the refresher and waits until the cycle it
	// starts has finished: the cycle counter counts cycle starts, so the
	// start of the next kicked cycle marks the end of this one.
	awaitRefresh := func() error {
		base := cycles.Value()
		deadline := time.Now().Add(refreshWait)
		for step := int64(1); step <= 2; step++ {
			e.srv.KickRefresh()
			for cycles.Value() < base+step {
				if time.Now().After(deadline) {
					return fmt.Errorf("refresh cycle did not run within %v", refreshWait)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		return nil
	}

	var (
		readMS, ttfb, cold, writeMS, freshMS []float64
		tracedMS, untracedMS                 []float64
		readBytes, blockBytes                int64
		blockTime                            time.Duration
		blockMBs                             []float64 // per block of writeEvery reads
		hits, derived                        int
		la                                   layerAgg
		reqs, reads, writes                  int
		checkNext                            bool
	)
	// Warm the cache before the window, least popular keys first, so the
	// window measures the warm steady state whatever its length: every
	// read of every key once, the popular ones last so they stay cached.
	for i := len(keys) - 1; i >= 0; i-- {
		if r := c.do(ctxBackground, "GET", keys[i].target(), false); !r.ok() {
			return nil, fmt.Errorf("warming %s %s: status %d", keys[i].date, keys[i].path, r.code)
		}
	}
	seen := make(map[rwKey][]digest)
	w := openWindow()
	// Cold probes open the window: each registers a fresh view and reads
	// a document past the cache, the dates in turn, so every run probes
	// the same documents.
	for i := 0; i < coldProbes; i++ {
		if _, err := e.srv.AddSpec(coldView, hospital.SpecText); err != nil {
			return nil, fmt.Errorf("registering the cold view: %w", err)
		}
		target := "/views/" + coldView + "?date=" + datagen.Date(i%datagen.Tiny.Dates)
		var r response
		if cfg.traced {
			// Documents are never read from the mediator in the window
			// (they are the most popular keys, always cached), so the
			// traced run's mediator figures come from the cold probes.
			r, _ = la.tracedRequest(c, target, true, true)
		} else {
			r = c.do(ctxBackground, "GET", target, true)
		}
		reqs++
		if !r.ok() {
			out.checks.fail("cold read: status %d", r.code)
		}
		cold = append(cold, ms(r.total))
	}
	for ; !w.over(cfg, reads); reads++ {
		k := keys[zipf.Uint64()]
		traced := cfg.traced && reads%2 == 0
		var r response
		if traced {
			r, _ = la.tracedRequest(c, k.target(), false, false)
		} else {
			r = c.do(ctxBackground, "GET", k.target(), false)
		}
		reqs++
		if !r.ok() {
			out.checks.fail("read %s %s: status %d", k.date, k.path, r.code)
		} else {
			seen[k] = append(seen[k], digestOf(r.body))
		}
		readMS = append(readMS, ms(r.total))
		ttfb = append(ttfb, ms(r.ttfb))
		readBytes += int64(len(r.body))
		blockBytes += int64(len(r.body))
		blockTime += r.total
		switch r.cache() {
		case "hit":
			hits++
		case "derived":
			derived++
		}
		out.samples["read_ms."+r.cache()] = append(out.samples["read_ms."+r.cache()], ms(r.total))
		if cfg.traced {
			if traced {
				tracedMS = append(tracedMS, ms(r.total))
			} else {
				untracedMS = append(untracedMS, ms(r.total))
			}
		}
		if checkNext {
			// No-stale-hit check: the first read after a write pair must
			// equal a cache-bypassing evaluation at the same stamp.
			checkNext = false
			o := c.do(ctxBackground, "GET", k.target(), true)
			switch {
			case !o.ok():
				out.checks.fail("no-store oracle %s %s: status %d", k.date, k.path, o.code)
			// A bypassing request that matches nothing carries no stamp.
			case o.header.Get("X-Aig-Stamp") != "" && o.header.Get("X-Aig-Stamp") != r.header.Get("X-Aig-Stamp"):
				out.checks.fail("read after write %s %s: stamp %q, oracle stamp %q", k.date, k.path, r.header.Get("X-Aig-Stamp"), o.header.Get("X-Aig-Stamp"))
			case digestOf(o.body) != digestOf(r.body):
				out.checks.fail("read after write %s %s (%s): stale body", k.date, k.path, r.cache())
			}
		}
		if (reads+1)%writeEvery != 0 {
			continue
		}
		blockMBs = append(blockMBs, ratio(float64(blockBytes)/1e6, blockTime.Seconds()))
		blockBytes, blockTime = 0, 0
		// Three visitInfo pairs, then one cover pair: a visitInfo write
		// rebuilds only its date's entries and restamps the rest, a cover
		// write cannot be judged by date and rebuilds nearly every entry.
		row := picker.pick(rng, writes%8 != 6)
		for _, op := range []string{"insert", "delete"} {
			src, err := e.reg.Get(row.db)
			if err != nil {
				return nil, err
			}
			var before uint64
			if jp != nil {
				tv, err := src.TableVersions()
				if err != nil {
					return nil, err
				}
				before = tv[row.table]
			}
			r := c.do(ctxBackground, "POST", row.target(op), false)
			ack := time.Now()
			reqs++
			writes++
			if !r.ok() {
				out.checks.fail("%s %s:%s %v: status %d: %s", op, row.db, row.table, row.values, r.code, strings.TrimSpace(string(r.body)))
			}
			writeMS = append(writeMS, ms(r.total))
			if err := awaitRefresh(); err != nil {
				return nil, err
			}
			freshMS = append(freshMS, ms(time.Since(ack)))
			if jp != nil {
				if err := jp.judge(src, row.table, before); err != nil {
					return nil, err
				}
			}
		}
		checkNext = true
	}
	w.close(out, reqs)
	out.attempted = reqs
	out.counts["bytes"] = readBytes
	out.counts["sequence"] = int64(c.seq.Sum64())
	out.counts["hits"] = int64(hits)
	out.counts["derived"] = int64(derived)
	out.counts["evictions"] = int64(evictions.delta())
	out.counts["restamped"] = int64(restamped.delta())
	out.counts["rebuilt"] = int64(rebuilt.delta())
	out.counts["writes"] = int64(writes)

	out.samples["p50_ms"], out.samples["cold_p50_ms"] = readMS, cold
	out.samples["serve.write_ms"], out.samples["serve.fresh_ms"] = writeMS, freshMS
	out.metrics["p50_ms"] = median(readMS)
	out.metrics["ttfb_p50_ms"] = median(ttfb)
	out.metrics["cold_p50_ms"] = median(cold)
	// Read throughput is the median over the blocks of reads between
	// write pairs, so a single stalled read moves one block, not the run.
	out.metrics["mb_s"] = median(blockMBs)

	// Every read saw the data as the workload found it (each write pair
	// restores it), so each must equal a cache-bypassing evaluation now.
	// The oracle runs after the window.
	for k, ds := range seen {
		o := c.do(ctxBackground, "GET", k.target(), true)
		if !o.ok() {
			out.checks.fail("no-store oracle %s %s: status %d", k.date, k.path, o.code)
			continue
		}
		want := digestOf(o.body)
		for _, d := range ds {
			if d != want {
				out.checks.fail("read %s %s: body differs from a no-store evaluation", k.date, k.path)
				break
			}
		}
	}
	seen = nil
	out.metrics["heap_retained_mb"] = heapRetainedMB()

	if cfg.traced {
		la.mediatorMetrics(out.metrics)
		n := float64(reads)
		out.metrics["serve.hit_ratio"] = ratio(float64(hits), n)
		out.metrics["serve.derived_ratio"] = ratio(float64(derived), n)
		out.metrics["serve.evictions_per_kread"] = ratio(evictions.delta()*1000, n)
		out.metrics["serve.refresh_delta_ratio"] = ratio(restamped.delta(), restamped.delta()+rebuilt.delta())
		out.metrics["serve.refresh_eval_ms"] = ratio((refreshSec.Sum()-refreshSum0)*1e3, float64(refreshSec.Count()-refreshN0))
		out.metrics["serve.read_p99_ms"] = quantile(readMS, 0.99)
		out.metrics["serve.write_ms"] = median(writeMS)
		out.metrics["serve.fresh_ms"] = median(freshMS)
		out.metrics["relstore.wal_bytes_per_write"] = ratio(w.walBytes.delta(), float64(writes))
		out.metrics["ivm.judge_us"] = ratio(jp.us, float64(jp.judged))
		out.metrics["ivm.irrelevant_ratio"] = ratio(float64(jp.irrel), float64(jp.judged))
		out.metrics["obs.trace_overhead_pct"] = overheadPct(tracedMS, untracedMS)
	}
	return out, nil
}
