package main

import (
	"reflect"
	"testing"
)

// runTwice runs a workload twice with one seed and once with another, at
// a fixed work limit, and checks every output check passed.
func runTwice(t *testing.T, run func(config) (*outcome, error), limit int) (a, b, other *outcome) {
	t.Helper()
	do := func(seed int64) *outcome {
		out, err := run(config{seed: seed, limit: limit, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if out.checks.failed != 0 {
			t.Fatalf("seed %d: %d failed checks: %v", seed, out.checks.failed, out.checks.problems)
		}
		return out
	}
	return do(7), do(7), do(8)
}

func TestWarmRWDeterministic(t *testing.T) {
	a, b, other := runTwice(t, runWarmRW, 300)
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Errorf("one seed, different counts:\n%v\n%v", a.counts, b.counts)
	}
	for _, k := range []string{"bytes", "hits", "restamped", "rebuilt", "wal_bytes", "writes"} {
		if a.counts[k] == 0 {
			t.Errorf("count %s is 0; the run should exercise it", k)
		}
	}
	if a.counts["sequence"] == other.counts["sequence"] {
		t.Error("a second seed sent the same request sequence")
	}
}

func TestFragmentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the small catalog")
	}
	a, b, other := runTwice(t, runFragment, 40)
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Errorf("one seed, different counts:\n%v\n%v", a.counts, b.counts)
	}
	if a.counts["sequence"] == other.counts["sequence"] {
		t.Error("a second seed sent the same request sequence")
	}
}

func TestFullDocDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the small catalog")
	}
	run := func(seed int64) *outcome {
		out, err := runFullDoc(config{seed: seed, limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if out.checks.failed != 0 {
			t.Fatalf("%d failed checks: %v", out.checks.failed, out.checks.problems)
		}
		return out
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a.counts, b.counts) {
		t.Errorf("one seed, different counts:\n%v\n%v", a.counts, b.counts)
	}
	if a.attempted != 1+steadyPerRound {
		t.Errorf("one round made %d requests, want %d", a.attempted, 1+steadyPerRound)
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	out, err := runWarmRW(config{seed: 3, limit: 200, traced: true, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range perLayer {
		if _, ok := out.metrics[s.name]; !ok {
			t.Errorf("traced run did not report %s", s.name)
		}
	}
	for _, name := range []string{"serve.hit_ratio", "serve.write_ms", "serve.fresh_ms", "ivm.judge_us", "relstore.wal_bytes_per_write", "mediator.execute_ms"} {
		if out.metrics[name] <= 0 {
			t.Errorf("%s = %v on warm-rw, want > 0", name, out.metrics[name])
		}
	}
}

func TestNodeKind(t *testing.T) {
	for name, want := range map[string]string{
		"node:Q:report/patient":        "sql",
		"node:Qc:report/patient":       "sql",
		"node:merged+Q:a+Q:b":          "sql",
		"node:mat:report/patient":      "copy",
		"node:syn:report/treatments":   "syn",
		"node:inh:report/patient":      "inh",
		"node:branch:report/procedure": "inh",
	} {
		if got := nodeKind(name); got != want {
			t.Errorf("nodeKind(%q) = %s, want %s", name, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}
