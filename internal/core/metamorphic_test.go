package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// permuted shuffles the batch order: not a configuration dimension, so the
// metamorphic tests below check it rather than TestConfigMatrix.
func permuted(batches []*pg.Batch, seed int64) []*pg.Batch {
	out := append([]*pg.Batch(nil), batches...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestMetamorphicPermutationInvariance: on a fault-free stream, the type
// structure (schema.TypeFingerprint: which label sets exist, with which
// property keys) is the same for every batch order, for both methods at
// depths 1, 2 and 4.
func TestMetamorphicPermutationInvariance(t *testing.T) {
	g := engineGraph(t, 300)
	batches := g.SplitRandom(6, 11)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		for _, depth := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.Method = m
			cfg.PipelineDepth = depth
			base := schema.TypeFingerprint(Discover(pg.NewSliceSource(batches...), cfg).Schema)
			for _, seed := range []int64{1, 2, 3} {
				got := schema.TypeFingerprint(Discover(pg.NewSliceSource(permuted(batches, seed)...), cfg).Schema)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%v depth=%d perm=%d: type structure depends on batch order\nbase: %v\ngot:  %v",
						m, depth, seed, base, got)
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
		ck := &chainCheckpointer{t: t, name: fmt.Sprintf("perm=%d", seed), cfg: cfg}
		res, err := Run(pg.AsErrSource(pg.NewSliceSource(permuted(batches, seed)...)), cfg, RunOptions{Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		ck.agreesWith(res)
	}
}
