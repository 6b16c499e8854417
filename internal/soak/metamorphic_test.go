package soak

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// Metamorphic suite over every named scenario: properties that must hold
// for any workload, checked on the adversarial ones.
//
//   - depth-1 ≡ depth-4: the overlapped engine is byte-identical to serial
//   - shards=1 ≡ serial: the sharded entry point degenerates exactly
//   - shards=2: deterministic run to run, and equivalent to serial at the
//     scenario's equivalence level (sharded runs are not byte-identical —
//     see Config.Shards)
//
// Both shard properties hold from the bare config and from DefaultConfig(),
// each at depth 1; the others are checked from the bare config.
//   - batch-order permutation: the type fingerprint is order-invariant for
//     fully labeled streams; with unlabeled elements Algorithm 2 may route
//     an unlabeled candidate into a labeled type (rule 2 of MergeTypes), so
//     only the labeled equivalence level (schema.EquivLabeled) is pinned
//   - monotone growth: the accumulated schema only gains types/properties
//     batch over batch

func collectBatches(t *testing.T, sc *datagen.Scenario, seed int64) []*pg.Batch {
	t.Helper()
	var out []*pg.Batch
	src := sc.Stream(seed)
	for b := src.Next(); b != nil; b = src.Next() {
		out = append(out, b)
	}
	if len(out) == 0 {
		t.Fatal("scenario produced no batches")
	}
	return out
}

func schemaJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, res.Def); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScenarioMetamorphic(t *testing.T) {
	for _, full := range datagen.Scenarios() {
		name := full.Name
		t.Run(name, func(t *testing.T) {
			sc := shrunk(t, name)
			batches := collectBatches(t, sc, 1)
			base := core.Config{PipelineDepth: 1}
			defaults := core.DefaultConfig()
			defaults.PipelineDepth = 1
			bases := []core.Config{base, defaults}
			baseNames := []string{"bare config", "DefaultConfig()"}
			serials := make([]*core.Result, len(bases))
			for i, cfg := range bases {
				serials[i] = core.Discover(pg.NewSliceSource(batches...), cfg)
			}
			serial := serials[0]
			serialJSON := schemaJSON(t, serial)

			t.Run("depth", func(t *testing.T) {
				deep := base
				deep.PipelineDepth = 4
				got := core.Discover(pg.NewSliceSource(batches...), deep)
				if !bytes.Equal(schemaJSON(t, got), serialJSON) {
					t.Error("depth-4 schema differs from depth-1")
				}
			})

			t.Run("shards-1", func(t *testing.T) {
				for i, cfg := range bases {
					cfg.Shards = 1
					got := core.Discover(pg.NewSliceSource(batches...), cfg)
					if !bytes.Equal(schemaJSON(t, got), schemaJSON(t, serials[i])) {
						t.Errorf("%s: shards=1 schema differs from serial", baseNames[i])
					}
				}
			})

			t.Run("shards-2", func(t *testing.T) {
				level := ScenarioEquivalenceLevel(sc, 1, 1)
				for i, cfg := range bases {
					cfg.Shards = 2
					a := core.Discover(pg.NewSliceSource(batches...), cfg)
					b := core.Discover(pg.NewSliceSource(batches...), cfg)
					if !bytes.Equal(schemaJSON(t, a), schemaJSON(t, b)) {
						t.Errorf("%s: shards=2 not deterministic run to run", baseNames[i])
					}
					if diff := schema.EquivalenceDiff(serials[i].Def, a.Def, level); diff != "" {
						t.Errorf("%s: shards=2 not equivalent to serial at level %s: %s", baseNames[i], level, diff)
					}
				}
			})

			t.Run("permutation", func(t *testing.T) {
				perm := append([]*pg.Batch(nil), batches...)
				rand.New(rand.NewSource(99)).Shuffle(len(perm), func(i, j int) {
					perm[i], perm[j] = perm[j], perm[i]
				})
				got := core.Discover(pg.NewSliceSource(perm...), base)
				a := schema.TypeFingerprint(serial.Schema)
				b := schema.TypeFingerprint(got.Schema)
				if StreamFullyLabeled(sc, 1, 1) {
					if !reflect.DeepEqual(a, b) {
						t.Error("type fingerprint changed under batch-order permutation")
					}
					return
				}
				// Unlabeled candidates may be absorbed by different types
				// depending on arrival order; the labeled level still holds.
				if diff := schema.EquivalenceDiff(serial.Def, got.Def, schema.EquivLabeled); diff != "" {
					t.Errorf("not equivalent under permutation at level labeled: %s", diff)
				}
			})

			t.Run("monotone", func(t *testing.T) {
				p := core.NewPipeline(base)
				prev := schema.TypeFingerprint(p.Schema())
				for i, b := range batches {
					p.ProcessBatch(b)
					cur := schema.TypeFingerprint(p.Schema())
					if !schema.FingerprintSubset(prev, cur) {
						t.Fatalf("batch %d: schema lost types or properties", i)
					}
					prev = cur
				}
			})
		})
	}
}
