package pg

import (
	"fmt"
	"reflect"
	"testing"
)

// partitionStream builds a fixed population of 120 nodes and 80 edges,
// chopped into batches of the given size: same elements, different batch
// boundaries. Edge IDs and endpoint IDs differ, so routing an edge by an
// endpoint instead of its own ID lands it in the wrong shard.
func partitionStream(batchSize int) []*Batch {
	const nodes, edges = 120, 80
	var all Batch
	for i := 0; i < nodes; i++ {
		all.Nodes = append(all.Nodes, NodeRecord{
			ID: ID(i), Labels: []string{"Person"},
			Props: Properties{"name": Str(fmt.Sprintf("p%d", i))},
		})
	}
	for i := 0; i < edges; i++ {
		all.Edges = append(all.Edges, EdgeRecord{
			ID: ID(1000 + i), Labels: []string{"KNOWS"},
			Src: ID(i), Dst: ID((i + 1) % nodes),
			SrcLabels: []string{"Person"}, DstLabels: []string{"Person"},
		})
	}
	var out []*Batch
	for len(all.Nodes) > 0 || len(all.Edges) > 0 {
		b := &Batch{}
		for len(b.Nodes) < batchSize && len(all.Nodes) > 0 {
			b.Nodes = append(b.Nodes, all.Nodes[0])
			all.Nodes = all.Nodes[1:]
		}
		for b.Len() < batchSize && len(all.Edges) > 0 {
			b.Edges = append(b.Edges, all.Edges[0])
			all.Edges = all.Edges[1:]
		}
		out = append(out, b)
	}
	return out
}

// partitionIDs partitions every batch of the stream across n shards and
// returns each shard's element IDs in arrival order (nodes before edges
// within a sub-batch, as PartitionBatch lays them out).
func partitionIDs(stream []*Batch, n int) [][]ID {
	out := make([][]ID, n)
	for _, b := range stream {
		parts := PartitionBatch(b, n)
		if len(parts) != n {
			panic(fmt.Sprintf("PartitionBatch returned %d sub-batches, want %d", len(parts), n))
		}
		for i, p := range parts {
			for _, nd := range p.Nodes {
				out[i] = append(out[i], nd.ID)
			}
			for _, e := range p.Edges {
				out[i] = append(out[i], e.ID)
			}
		}
	}
	return out
}

func TestPartitionBatchExactlyOnce(t *testing.T) {
	const shards = 4
	seen := map[ID]int{}
	total := 0
	for _, ids := range partitionIDs(partitionStream(16), shards) {
		for _, id := range ids {
			seen[id]++
			total++
		}
	}
	if total != 200 {
		t.Fatalf("delivered %d elements, want 200", total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("element %v delivered %d times", id, n)
		}
	}
}

func TestPartitionBatchOwnerShard(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		for i, ids := range partitionIDs(partitionStream(16), shards) {
			for _, id := range ids {
				if got := ShardOf(id, shards); got != i {
					t.Fatalf("n=%d: element %v delivered to shard %d, ShardOf says %d", shards, id, i, got)
				}
			}
		}
	}
}

func TestPartitionBatchIndependentOfBatchBoundaries(t *testing.T) {
	// The same population chopped into different batch sizes must give every
	// shard the same elements in the same relative order: the assignment may
	// not depend on where the batch boundaries fall.
	const shards = 3
	want := partitionIDs(partitionStream(7), shards)
	for _, size := range []int{1, 16, 50, 500} {
		if got := partitionIDs(partitionStream(size), shards); !reflect.DeepEqual(got, want) {
			t.Errorf("batch size %d: per-shard elements differ from batch size 7", size)
		}
	}
}

func TestPartitionBatchSingleShardPassesThrough(t *testing.T) {
	for _, n := range []int{1, 0} { // n < 1 clamps to one shard
		for _, b := range partitionStream(16) {
			parts := PartitionBatch(b, n)
			if len(parts) != 1 {
				t.Fatalf("n=%d: %d sub-batches, want 1", n, len(parts))
			}
			if !reflect.DeepEqual(parts[0].Nodes, b.Nodes) || !reflect.DeepEqual(parts[0].Edges, b.Edges) {
				t.Fatalf("n=%d: the single shard's sub-batch differs from its input", n)
			}
		}
	}
}
