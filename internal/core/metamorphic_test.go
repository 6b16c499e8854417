package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// Metamorphic properties of incremental discovery (Algorithm 1/2):
//
//  1. Permutation invariance — the discovered type structure (which label
//     sets exist, with which property keys) does not depend on the order
//     batches arrive in. Individual type splits and embeddings may differ
//     across orders, so the invariant is checked on a canonical aggregate:
//     label-set key → union of property keys, per element kind.
//  2. Monotonicity — the schema only grows: after every batch i,
//     S_i ⊑ S_{i+1} (no type and no property ever disappears), and this
//     holds under every fault profile, because quarantining a poisoned
//     batch merely withholds evidence.
//
// Both properties are exercised at pipeline depths 1/2/4 and for both LSH
// methods.

// fingerprint reduces a schema to its canonical observable structure:
// "n:<labelKey>" / "e:<labelKey>" → sorted union of property keys over every
// type carrying exactly that label set.
func fingerprint(s *schema.Schema) map[string][]string {
	out := map[string][]string{}
	fold := func(prefix string, types []*schema.Type) {
		merged := map[string]map[string]struct{}{}
		for _, t := range types {
			key := prefix + strings.Join(t.LabelStrings(), "|")
			props := merged[key]
			if props == nil {
				props = map[string]struct{}{}
				merged[key] = props
			}
			for _, k := range t.PropKeyStrings() {
				props[k] = struct{}{}
			}
		}
		for key, props := range merged {
			keys := make([]string, 0, len(props))
			for k := range props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out[key] = keys
		}
	}
	fold("n:", s.NodeTypes)
	fold("e:", s.EdgeTypes)
	return out
}

// subsetOf reports whether fingerprint a is contained in b: every type key
// of a exists in b and carries at least a's property keys.
func subsetOf(a, b map[string][]string) error {
	for key, props := range a {
		bprops, ok := b[key]
		if !ok {
			return fmt.Errorf("type %q disappeared", key)
		}
		set := map[string]struct{}{}
		for _, p := range bprops {
			set[p] = struct{}{}
		}
		for _, p := range props {
			if _, ok := set[p]; !ok {
				return fmt.Errorf("type %q lost property %q", key, p)
			}
		}
	}
	return nil
}

func permuted(batches []*pg.Batch, seed int64) []*pg.Batch {
	out := append([]*pg.Batch(nil), batches...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestMetamorphicPermutationInvariance: on a fault-free stream, the
// canonical type structure is identical for every batch-arrival order.
func TestMetamorphicPermutationInvariance(t *testing.T) {
	g := engineGraph(t, 300)
	batches := g.SplitRandom(6, 11)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		for _, depth := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.Method = m
			cfg.PipelineDepth = depth
			base := fingerprint(Discover(pg.NewSliceSource(batches...), cfg).Schema)
			for _, seed := range []int64{1, 2, 3} {
				got := fingerprint(Discover(pg.NewSliceSource(permuted(batches, seed)...), cfg).Schema)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%v depth=%d perm=%d: type structure depends on batch order\nbase: %v\ngot:  %v",
						m, depth, seed, base, got)
				}
			}
		}
	}
}

// monotonicityRecorder decodes every checkpoint drainFT emits and keeps the
// schema fingerprint sequence, in batch order.
type monotonicityRecorder struct {
	cfg   Config
	snaps []map[string][]string
}

func (r *monotonicityRecorder) Save(state []byte) error {
	schemas, err := DecodeCheckpointSchemas(state, r.cfg)
	if err != nil {
		return fmt.Errorf("decode checkpoint %d: %w", len(r.snaps), err)
	}
	r.snaps = append(r.snaps, fingerprint(schemas[0]))
	return nil
}

// TestMetamorphicMonotonicity: S_i ⊑ S_{i+1} after every batch, under every
// fault profile, at every depth, for both methods. The per-batch snapshots
// come from the checkpoint stream itself, so this simultaneously verifies
// that checkpoints decode to coherent schemas mid-run.
func TestMetamorphicMonotonicity(t *testing.T) {
	g := engineGraph(t, 300)
	batches := g.SplitRandom(6, 11)
	profiles := map[string]pg.FaultProfile{
		"fault-free": {},
		"transient":  {TransientRate: 0.3, Seed: 5},
		"corrupt":    {CorruptRate: 0.25, Seed: 5},
		"truncate":   {TruncateRate: 0.25, Seed: 5},
		"mixed":      {TransientRate: 0.2, CorruptRate: 0.15, TruncateRate: 0.1, Seed: 5},
		"fail-mid":   {FailAfter: 4, Seed: 5},
	}
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		for _, depth := range []int{1, 2, 4} {
			for name, profile := range profiles {
				cfg := DefaultConfig()
				cfg.Method = m
				cfg.PipelineDepth = depth
				rec := &monotonicityRecorder{cfg: cfg}
				src := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), profile)
				p := NewPipeline(cfg)
				_, err := p.drainFT(src, rec, resumeState{})
				if name == "fail-mid" {
					if err == nil {
						t.Errorf("%v depth=%d %s: expected permanent failure", m, depth, name)
					}
				} else if err != nil {
					t.Fatalf("%v depth=%d %s: %v", m, depth, name, err)
				}
				if len(rec.snaps) == 0 {
					t.Fatalf("%v depth=%d %s: no checkpoints recorded", m, depth, name)
				}
				for i := 1; i < len(rec.snaps); i++ {
					if err := subsetOf(rec.snaps[i-1], rec.snaps[i]); err != nil {
						t.Errorf("%v depth=%d %s: monotonicity broken at batch %d: %v", m, depth, name, i, err)
					}
				}
				// The final snapshot matches the live pipeline.
				if err := subsetOf(rec.snaps[len(rec.snaps)-1], fingerprint(p.Schema())); err != nil {
					t.Errorf("%v depth=%d %s: last checkpoint disagrees with live schema: %v", m, depth, name, err)
				}
			}
		}
	}
}

// TestMetamorphicMonotonicityPermuted combines both properties: monotone
// growth must hold for shuffled batch orders too.
func TestMetamorphicMonotonicityPermuted(t *testing.T) {
	g := engineGraph(t, 300)
	batches := g.SplitRandom(5, 7)
	cfg := DefaultConfig()
	for _, seed := range []int64{1, 9} {
		rec := &monotonicityRecorder{cfg: cfg}
		p := NewPipeline(cfg)
		src := pg.AsErrSource(pg.NewSliceSource(permuted(batches, seed)...))
		if _, err := p.drainFT(src, rec, resumeState{}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rec.snaps); i++ {
			if err := subsetOf(rec.snaps[i-1], rec.snaps[i]); err != nil {
				t.Errorf("perm=%d: monotonicity broken at batch %d: %v", seed, i, err)
			}
		}
	}
}
