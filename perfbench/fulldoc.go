package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
)

// steadyPerRound is how many steady requests follow each round's cold one.
const steadyPerRound = 2

// runFullDoc is the full-doc workload: the small catalog, one report
// date, every request Cache-Control: no-store. Each round re-registers
// the view — the first request on the fresh view is the cold sample —
// then serves steadyPerRound steady requests at the depth that sufficed.
// With a limit, the run is that many rounds.
func runFullDoc(cfg config) (*outcome, error) {
	e, setupS, err := timedSetup(cfg, setupSmall)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := newOutcome()
	out.metrics["setup_s"] = setupS

	var g *grammars
	if cfg.traced {
		if g, err = buildGrammars(e.reg); err != nil {
			return nil, err
		}
	}
	c := newClient(e.srv.Handler())
	target := "/views/" + viewName + "?date=" + smallDate

	var (
		cold, steady, ttfb, stream []float64
		tracedMS, untracedMS       []float64
		unfoldMS                   []float64
		steadyBytes                int64
		steadyTime                 time.Duration
		first                      []byte
		want                       digest
		la                         layerAgg
		reqs, steadyN              int
	)
	w := openWindow()
	for round := 0; !w.over(cfg, round); round++ {
		if _, err := e.srv.AddSpec(viewName, hospital.SpecText); err != nil {
			return nil, fmt.Errorf("re-registering the view: %w", err)
		}
		for i := 0; i <= steadyPerRound; i++ {
			isCold := i == 0
			// A traced run traces every cold request and every other
			// steady one; the untraced steady requests give the overhead.
			traced := cfg.traced && (isCold || steadyN%2 == 0)
			var r response
			if traced {
				meterSources(e.sources, true)
				var s evalSample
				r, s = la.tracedRequest(c, target, true, isCold)
				meterSources(e.sources, false)
				if depth, err := strconv.Atoi(r.header.Get("X-Aig-Unfold-Depth")); err == nil && s.evaluated() {
					t0 := time.Now()
					if _, err := specialize.Unfold(g.sa, depth); err != nil {
						return nil, fmt.Errorf("unfolding at depth %d: %w", depth, err)
					}
					unfoldMS = append(unfoldMS, ms(time.Since(t0)))
				}
			} else {
				r = c.do(ctxBackground, "GET", target, true)
			}
			reqs++
			if !r.ok() {
				out.checks.fail("full document: status %d", r.code)
				continue
			}
			d := digestOf(r.body)
			if first == nil {
				first = append([]byte(nil), r.body...)
				want = d
			} else if d != want {
				out.checks.fail("full document differs from the first one at the same stamp (round %d, request %d)", round, i)
			}
			if isCold {
				cold = append(cold, ms(r.total))
				continue
			}
			steadyN++
			steady = append(steady, ms(r.total))
			ttfb = append(ttfb, ms(r.ttfb))
			stream = append(stream, ms(r.total-r.ttfb))
			steadyBytes += int64(len(r.body))
			steadyTime += r.total
			if cfg.traced {
				if traced {
					tracedMS = append(tracedMS, ms(r.total))
				} else {
					untracedMS = append(untracedMS, ms(r.total))
				}
			}
		}
	}
	w.close(out, reqs)
	out.attempted = reqs
	out.counts["bytes"] = steadyBytes + int64(len(cold))*int64(len(first))
	out.counts["sequence"] = int64(c.seq.Sum64())

	out.samples["p50_ms"], out.samples["cold_p50_ms"] = steady, cold
	out.metrics["p50_ms"] = median(steady)
	out.metrics["ttfb_p50_ms"] = median(ttfb)
	out.metrics["cold_p50_ms"] = median(cold)
	out.metrics["mb_s"] = ratio(float64(steadyBytes)/1e6, steadyTime.Seconds())
	out.metrics["serve.stream_ms"] = median(stream)

	doc, err := checkDocument(first, &out.checks)
	if err != nil {
		return nil, err
	}
	first = nil
	if cfg.traced {
		la.mediatorMetrics(out.metrics)
		out.metrics["specialize.unfold_ms"] = median(unfoldMS)
		sourceMetrics(out, e, len(la.evals)+len(la.coldEvals))
		renderMetrics(out, doc)
		out.metrics["obs.trace_overhead_pct"] = overheadPct(tracedMS, untracedMS)
	}
	doc = nil
	out.metrics["heap_retained_mb"] = heapRetainedMB()
	return out, nil
}

// checkDocument parses a served full document and checks it against the
// view's DTD and XML constraints. It returns the parsed document (nil
// when there was none to check).
func checkDocument(body []byte, ck *checks) (*xmltree.Node, error) {
	if body == nil {
		return nil, nil
	}
	a, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		return nil, err
	}
	doc, err := xmltree.Parse(bytes.NewReader(body))
	if err != nil {
		ck.fail("full document does not parse: %v", err)
		return nil, nil
	}
	if err := dtd.Conforms(a.DTD, doc); err != nil {
		ck.fail("full document violates the DTD: %v", err)
	}
	if v := xconstraint.CheckAll(a.Constraints, doc); len(v) > 0 {
		ck.fail("full document violates %d XML constraints, first: %v", len(v), v[0])
	}
	return doc, nil
}

// renderMetrics times the xmltree layer directly: Doc.WriteIndented on a
// parsed copy of the served document, the call the server renders with.
func renderMetrics(out *outcome, doc *xmltree.Node) {
	if doc == nil {
		return
	}
	var times []float64
	var size int
	for i := 0; i < 3; i++ {
		var b strings.Builder
		t0 := time.Now()
		if err := doc.WriteIndented(&b); err != nil {
			out.checks.fail("rendering the parsed document: %v", err)
			return
		}
		times = append(times, ms(time.Since(t0)))
		size = b.Len()
	}
	out.metrics["xmltree.render_ms"] = median(times)
	out.metrics["xmltree.doc_mb"] = float64(size) / 1e6
}
