package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// MemoryPoint is one measurement of the memory experiment: streaming
// discovery under a memory budget, scoring the sketched constraint output
// against the exact baseline and recording what the run actually retained.
type MemoryPoint struct {
	Dataset string
	// Mode is "exact" (no budget) or "sketched" (budgeted evidence).
	Mode string
	// BudgetBytes is Config.MemBudgetBytes for the run (0 for exact).
	BudgetBytes int64
	// Elements is the total node+edge count of the stream.
	Elements int
	// Elapsed is the end-to-end Discover wall-clock time.
	Elapsed time.Duration
	// RetainedBytes is the live-heap growth attributable to the run's
	// result (HeapAlloc delta across the run, post-GC on both sides).
	RetainedBytes uint64
	// EvidenceBytes is the schema's own estimate of its evidence footprint
	// (schema.EvidenceBytes) — the part of the retained heap the budget
	// policy controls.
	EvidenceBytes int64
	// Facts is the number of constraint facts (mandatory/unique/enum/
	// cardinality) the run's schema asserts.
	Facts int
	// ConstraintF1 scores those facts against the exact run's (1.0 for the
	// exact baseline itself).
	ConstraintF1 float64
	// Identical reports whether the finalized schema JSON is byte-identical
	// to the exact baseline — not expected for sketched rows.
	Identical bool
}

// memoryBudgets is the budget sweep: one point per evidence-policy tier
// (PolicyForBudget's breakpoints are 128MB and 512MB).
var memoryBudgets = []int64{64 << 20, 256 << 20, 1 << 30}

const memoryBatches = 16

// RunMemory pins the accuracy/memory trade-off of sketch-backed evidence:
// each dataset streams through discovery exact (the baseline) and under
// each budget tier (HLL uniqueness, count-min degrees, space-saving enums
// sized by PolicyForBudget). Constraint facts — MANDATORY/OPTIONAL, key
// candidates, enums, edge cardinalities — are scored as set-F1 against the
// exact run. Run at -scale large enough for a
// million-element stream to reproduce BENCH_memory.json.
func RunMemory(w io.Writer, s Settings) ([]MemoryPoint, error) {
	s = s.withDefaults()
	profiles := s.profiles()
	if len(s.Datasets) == 0 {
		profiles = []*datagen.Profile{datagen.ProfileByName("LDBC"), datagen.ProfileByName("ICIJ")}
	}
	var points []MemoryPoint

	fmt.Fprintln(w, "Memory: sketch-backed evidence vs exact under -mem-budget (constraint F1, retained heap)")
	tw := newTable(w)
	fmt.Fprintln(tw, "  dataset\tmode\tbudget(MB)\telements\ttotal(ms)\tretained(KB)\tevidence(KB)\tfacts\tconstraint F1\tidentical")
	for _, p := range profiles {
		ds := datagen.Generate(p, datagen.Options{Nodes: s.Scale, Seed: s.Seed})
		batches := ds.Graph.SplitRandom(memoryBatches, s.Seed)
		elements := 0
		for _, b := range batches {
			elements += b.Len()
		}

		exact, exactDef := measureMemory(p.Name, "exact", 0, batches, elements, s)
		exactFacts := constraintFacts(exactDef)
		exactJSON := defJSON(exactDef)
		exact.Facts = len(exactFacts)
		exact.ConstraintF1 = 1
		exact.Identical = true
		points = append(points, exact)
		printMemoryRow(tw, exact)

		for _, budget := range memoryBudgets {
			pt, def := measureMemory(p.Name, "sketched", budget, batches, elements, s)
			facts := constraintFacts(def)
			pt.Facts = len(facts)
			pt.ConstraintF1 = setF1(facts, exactFacts)
			pt.Identical = bytes.Equal(defJSON(def), exactJSON)
			points = append(points, pt)
			printMemoryRow(tw, pt)
		}
	}
	return points, tw.Flush()
}

func printMemoryRow(tw io.Writer, pt MemoryPoint) {
	fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\t%s\t%.1f\t%.1f\t%d\t%.4f\t%t\n",
		pt.Dataset, pt.Mode, pt.BudgetBytes>>20, pt.Elements, ms(pt.Elapsed),
		float64(pt.RetainedBytes)/1024, float64(pt.EvidenceBytes)/1024,
		pt.Facts, pt.ConstraintF1, pt.Identical)
}

// measureMemory runs one instrumented discovery, capturing its memory
// profile (runtime.MemStats deltas around the run, post-GC on both sides,
// result held live) and the finalized definition for scoring.
func measureMemory(dataset, mode string, budget int64, batches []*pg.Batch, elements int, s Settings) (MemoryPoint, *schema.Def) {
	cfg := core.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.PipelineDepth = s.engineDepth()
	cfg.Telemetry = s.Telemetry
	cfg.MemBudgetBytes = budget

	pt := MemoryPoint{Dataset: dataset, Mode: mode, BudgetBytes: budget, Elements: elements}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := core.Discover(pg.NewSliceSource(batches...), cfg)
	pt.Elapsed = time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		pt.RetainedBytes = after.HeapAlloc - before.HeapAlloc
	}
	pt.EvidenceBytes = res.Schema.EvidenceBytes()
	return pt, res.Def
}

// defJSON renders a finalized schema for byte-identity checks.
func defJSON(def *schema.Def) []byte {
	out, err := json.Marshal(def)
	if err != nil {
		panic(err)
	}
	return out
}

// constraintFacts flattens a schema definition into its set of discovered
// constraints: one fact per MANDATORY property, key candidate, enum member
// and edge cardinality. Set comparison against the exact run's facts is the
// accuracy axis of the memory/accuracy trade-off.
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
	if len(got) == 0 && len(want) == 0 {
		return 1
	}
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
