package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

const (
	// coldProbes is how many fresh-view first requests the fragment and
	// warm-rw runs make: a cold request's latency is widely spread, and
	// on warm-rw forty probes visit each of the ten dates four times.
	coldProbes = 40
	// selectChecks is how many paths per run the oracle also resolves with
	// a whole-document xpath.Select, cross-checking its positional lookup.
	selectChecks = 16
	// partialEvery picks the paths the traced run also evaluates directly
	// with aig.EvalPartial: every patient position divisible by it, a
	// subset that does not depend on the seed.
	partialEvery = 8
)

func fragmentTarget(date, path string) string {
	return "/view/" + viewName + "?date=" + date + "&path=" + url.QueryEscape(path)
}

// fragReq is one fragment request of the fragment workload: the k-th
// patient's subtree (child "") or one child element of it.
type fragReq struct {
	k     int
	child string
}

func (f fragReq) path() string {
	p := fmt.Sprintf("//patient[%d]", f.k)
	if f.child != "" {
		p += "/" + f.child
	}
	return p
}

// fragmentOracle holds the expected body of every request: the matches of
// its path in the full document served at the run's stamp, rendered the
// way the server renders fragment elements.
type fragmentOracle struct {
	stamp string
	want  map[fragReq]digest
}

// buildFragmentOracle serves the full document with no-store and parses
// it. Every patient is a child of the root (report (patient*) in the
// view's DTD), so //patient[k] is the k-th match of //patient, and the
// oracle resolves each request by that position; the first selectChecks
// requests are also resolved by xpath.Select over the whole document and
// must agree. reqs receives the patient count and returns the requests.
func buildFragmentOracle(c *client, date string, ck *checks, reqs func(patients int) []fragReq) (*fragmentOracle, error) {
	full := c.do(ctxBackground, "GET", "/views/"+viewName+"?date="+date, true)
	if !full.ok() {
		return nil, fmt.Errorf("oracle document: status %d", full.code)
	}
	doc, err := xmltree.Parse(bytes.NewReader(full.body))
	if err != nil {
		return nil, fmt.Errorf("oracle document: %w", err)
	}
	render := func(nodes []*xmltree.Node) (digest, error) {
		var buf bytes.Buffer
		for _, n := range nodes {
			if err := n.WriteIndented(&buf); err != nil {
				return digest{}, err
			}
		}
		return digestOf(buf.Bytes()), nil
	}
	o := &fragmentOracle{stamp: full.header.Get("X-Aig-Stamp"), want: make(map[fragReq]digest)}
	patients := xpath.Select(doc, mustPath("//patient"))
	for i, f := range reqs(len(patients)) {
		var nodes []*xmltree.Node
		if p := patients[f.k-1]; f.child == "" {
			nodes = append(nodes, p)
		} else if ch := p.Child(f.child); ch != nil {
			nodes = append(nodes, ch)
		}
		d, err := render(nodes)
		if err != nil {
			return nil, err
		}
		o.want[f] = d
		if i < selectChecks {
			if s, err := render(xpath.Select(doc, mustPath(f.path()))); err != nil {
				return nil, err
			} else if s != d {
				ck.fail("oracle: positional lookup of %s differs from xpath.Select", f.path())
			}
		}
	}
	return o, nil
}

func mustPath(s string) *xpath.Path {
	p, err := xpath.Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// check compares a fragment response with the oracle.
func (o *fragmentOracle) check(ck *checks, f fragReq, r *response) {
	if !r.ok() {
		ck.fail("fragment %s: status %d", f.path(), r.code)
		return
	}
	if s := r.header.Get("X-Aig-Stamp"); s != o.stamp {
		ck.fail("fragment %s: served at stamp %q, oracle at %q", f.path(), s, o.stamp)
		return
	}
	if digestOf(r.body) != o.want[f] {
		ck.fail("fragment %s: body differs from the full document's match", f.path())
	}
}

// runFragment is the fragment workload: the small catalog, one report
// date, no-store. A pass requests, in seeded order, every patient
// position as a whole subtree and as its bill; the run makes whole passes
// while the window lasts. Cold probes (a fresh view's first fragment
// request) precede the passes. With a limit, the run is one pass cut to
// that many requests.
func runFragment(cfg config) (*outcome, error) {
	e, setupS, err := timedSetup(cfg, setupSmall)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := newOutcome()
	out.metrics["setup_s"] = setupS
	c := newClient(e.srv.Handler())
	rng := rand.New(rand.NewSource(cfg.seed))

	var seq, coldReqs []fragReq
	oracle, err := buildFragmentOracle(c, smallDate, &out.checks, func(n int) []fragReq {
		for k := 1; k <= n; k++ {
			seq = append(seq, fragReq{k, ""}, fragReq{k, "bill"})
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		for i := 0; i < coldProbes; i++ {
			coldReqs = append(coldReqs, fragReq{1 + rng.Intn(n), "pname"})
		}
		return append(append([]fragReq(nil), seq...), coldReqs...)
	})
	if err != nil {
		return nil, err
	}
	if cfg.limit > 0 && cfg.limit < len(seq) {
		seq = seq[:cfg.limit]
	}

	var g *grammars
	var rootInh *aig.AttrValue
	if cfg.traced {
		if g, err = buildGrammars(e.reg); err != nil {
			return nil, err
		}
		rootInh = aig.NewAttrValue(g.fa.Inh[g.fa.DTD.Root])
		if err := rootInh.SetScalar("date", relstore.String(smallDate)); err != nil {
			return nil, err
		}
	}

	var (
		lat, ttfb, stream, cold []float64
		tracedMS, untracedMS    []float64
		compileUS, partialMS    []float64
		partialQ                []float64
		fragBytes               int64
		fragTime                time.Duration
		la                      layerAgg
		reqs, fragN             int
	)
	w := openWindow()
	for _, f := range coldReqs {
		if _, err := e.srv.AddSpec(viewName, hospital.SpecText); err != nil {
			return nil, fmt.Errorf("re-registering the view: %w", err)
		}
		r := c.do(ctxBackground, "GET", fragmentTarget(smallDate, f.path()), true)
		reqs++
		oracle.check(&out.checks, f, &r)
		cold = append(cold, ms(r.total))
	}
	var lastPass time.Duration
	for pass := 0; !w.overPass(cfg, pass, lastPass); pass++ {
		passStart := time.Now()
		for _, f := range seq {
			target := fragmentTarget(smallDate, f.path())
			traced := cfg.traced && fragN%2 == 0
			var r response
			if traced {
				meterSources(e.sources, true)
				r, _ = la.tracedRequest(c, target, true, false)
				meterSources(e.sources, false)
			} else {
				r = c.do(ctxBackground, "GET", target, true)
			}
			reqs++
			fragN++
			oracle.check(&out.checks, f, &r)
			lat = append(lat, ms(r.total))
			ttfb = append(ttfb, ms(r.ttfb))
			stream = append(stream, ms(r.total-r.ttfb))
			fragBytes += int64(len(r.body))
			fragTime += r.total
			if !cfg.traced {
				continue
			}
			if traced {
				tracedMS = append(tracedMS, ms(r.total))
			} else {
				untracedMS = append(untracedMS, ms(r.total))
			}
			us, err := compilePath(g, f.path())
			if err != nil {
				return nil, err
			}
			compileUS = append(compileUS, us)
			if pass == 0 && f.k%partialEvery == 0 {
				pms, q, err := directPartial(e, g, rootInh, f.path())
				if err != nil {
					return nil, err
				}
				partialMS = append(partialMS, pms)
				partialQ = append(partialQ, q)
			}
		}
		lastPass = time.Since(passStart)
	}
	w.close(out, reqs)
	out.attempted = reqs
	out.counts["bytes"] = fragBytes
	out.counts["sequence"] = int64(c.seq.Sum64())

	out.samples["p50_ms"], out.samples["cold_p50_ms"] = lat, cold
	out.metrics["p50_ms"] = median(lat)
	out.metrics["ttfb_p50_ms"] = median(ttfb)
	out.metrics["cold_p50_ms"] = median(cold)
	out.metrics["mb_s"] = ratio(float64(fragBytes)/1e6, fragTime.Seconds())
	out.metrics["serve.stream_ms"] = median(stream)
	out.metrics["heap_retained_mb"] = heapRetainedMB()
	if cfg.traced {
		la.mediatorMetrics(out.metrics)
		sourceMetrics(out, e, len(tracedMS))
		out.metrics["xpath.compile_us"] = median(compileUS)
		out.metrics["aig.partial_ms"] = mean(partialMS)
		out.metrics["aig.partial_queries"] = mean(partialQ)
		out.metrics["obs.trace_overhead_pct"] = overheadPct(tracedMS, untracedMS)
	}
	return out, nil
}

// compilePath times the xpath layer directly: xpath.Parse plus
// xpath.Compile against the guard-free grammar, in microseconds.
func compilePath(g *grammars, path string) (float64, error) {
	t0 := time.Now()
	p, err := xpath.Parse(path)
	if err != nil {
		return 0, err
	}
	if _, err := xpath.Compile(g.fa, p); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / float64(time.Microsecond), nil
}

// directPartial calls (*aig.AIG).EvalPartial directly on the guard-free
// grammar with the serving stack's environment, rendering each match as
// the server does; it returns the time in milliseconds and
// aig.Counters.QueriesRun.
func directPartial(e *env, g *grammars, rootInh *aig.AttrValue, path string) (float64, float64, error) {
	p, err := xpath.Parse(path)
	if err != nil {
		return 0, 0, err
	}
	comp, err := xpath.Compile(g.fa, p)
	if err != nil {
		return 0, 0, err
	}
	env := &aig.Env{Schemas: e.reg, Data: e.reg, Stats: e.reg, PlanOpts: g.planOpts, MaxDepth: maxUnfold, Counters: &aig.Counters{}}
	t0 := time.Now()
	err = g.fa.EvalPartial(env, rootInh, comp.NewCursor(), func(n *xmltree.Node) error {
		var b strings.Builder
		return n.WriteIndented(&b)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("partial evaluation of %s: %w", path, err)
	}
	return ms(time.Since(t0)), float64(env.Counters.QueriesRun), nil
}
