//go:build !race

package core

import (
	"runtime"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// TestMemBudgetSketchedEvidence is the memory-budget gate. LDBC at scale
// 60,000 in 16 random batches streams through discovery exact, then under
// one budget per evidence-policy tier (PolicyForBudget's breakpoints are
// 128 MiB and 512 MiB). Every sketched run keeps its evidence estimate
// within its budget and its constraint facts at F1 ≥ 0.95 against the
// exact run's. The sketch footprint is fixed per tier, so only the lowest
// tier must retain less heap than the exact run at this scale.
//
// Retained heap is the post-GC HeapAlloc delta across the run with the
// result held live, so the test must not run in parallel with another.
// Race builds skip it: the race detector finds nothing here that the
// TestSketched and TestSoakSketched tests do not, at over three times the
// wall time.
func TestMemBudgetSketchedEvidence(t *testing.T) {
	batches := datagen.Generate(datagen.ProfileByName("LDBC"),
		datagen.Options{Nodes: 60_000, Seed: 1}).Graph.SplitRandom(16, 1)
	run := func(budget int64) (*Result, uint64) {
		cfg := DefaultConfig()
		cfg.PipelineDepth = 1
		cfg.MemBudgetBytes = budget
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := Discover(pg.NewSliceSource(batches...), cfg)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(res)
		if after.HeapAlloc <= before.HeapAlloc {
			return res, 0
		}
		return res, after.HeapAlloc - before.HeapAlloc
	}

	exact, exactRetained := run(0)
	exactFacts := constraintFacts(exact.Def)
	t.Logf("exact: retained %d B, evidence %d B, %d facts",
		exactRetained, exact.Schema.EvidenceBytes(), len(exactFacts))
	const lowest = 64 << 20
	for _, budget := range []int64{lowest, 256 << 20, 1 << 30} {
		res, retained := run(budget)
		evidence := res.Schema.EvidenceBytes()
		f1 := setF1(constraintFacts(res.Def), exactFacts)
		t.Logf("budget %d MiB: retained %d B, evidence %d B, constraint F1 %.4f",
			budget>>20, retained, evidence, f1)
		if evidence > budget {
			t.Errorf("budget %d MiB: evidence %d B over budget", budget>>20, evidence)
		}
		if f1 < 0.95 {
			t.Errorf("budget %d MiB: constraint F1 %.4f under 0.95", budget>>20, f1)
		}
		if budget == lowest && retained >= exactRetained {
			t.Errorf("budget %d MiB: retained %d B, no less than exact's %d B",
				budget>>20, retained, exactRetained)
		}
	}
}

// constraintFacts flattens a schema definition into its set of discovered
// constraints: one fact per MANDATORY property, key candidate, enum member
// and edge cardinality.
func constraintFacts(def *schema.Def) map[string]struct{} {
	facts := map[string]struct{}{}
	add := func(kind, name string, props []schema.PropertyDef) {
		for i := range props {
			p := &props[i]
			if p.Mandatory {
				facts["mandatory "+kind+":"+name+":"+p.Key] = struct{}{}
			}
			if p.Unique {
				facts["unique "+kind+":"+name+":"+p.Key] = struct{}{}
			}
			for _, v := range p.Enum {
				facts["enum "+kind+":"+name+":"+p.Key+"="+v] = struct{}{}
			}
		}
	}
	for i := range def.Nodes {
		n := &def.Nodes[i]
		add("node", n.Name, n.Properties)
	}
	for i := range def.Edges {
		e := &def.Edges[i]
		add("edge", e.Name, e.Properties)
		if e.Cardinality != schema.CardUnknown {
			facts["card edge:"+e.Name+"="+e.CardinalityString()] = struct{}{}
		}
	}
	return facts
}

// setF1 is the F1 of a fact set against a reference set.
func setF1(got, want map[string]struct{}) float64 {
	tp := 0
	for f := range got {
		if _, ok := want[f]; ok {
			tp++
		}
	}
	fp := len(got) - tp
	fn := len(want) - tp
	if 2*tp+fp+fn == 0 {
		return 1
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}
