package soak

import (
	"pghive/internal/datagen"
	"pghive/internal/schema"
)

// ScenarioEquivalenceLevel grades the equivalence claim a scenario's stream
// supports: label-mixing features (supernode rerouting, property or label
// noise) drop to coverage; unlabeled elements drop to labeled; otherwise
// the claim is exact.
func ScenarioEquivalenceLevel(sc *datagen.Scenario, seed int64, repeat int) schema.EquivalenceLevel {
	for _, ph := range sc.Phases {
		if ph.Supernodes.Count > 0 || ph.LabelNoise > 0 || ph.EdgeLabelNoise > 0 || ph.PropNoise > 0 {
			return schema.EquivCoverage
		}
	}
	if !StreamFullyLabeled(sc, seed, repeat) {
		return schema.EquivLabeled
	}
	return schema.EquivExact
}

// StreamFullyLabeled reports whether every element the scenario emits
// carries at least one label — a precondition for exact sharded-vs-serial
// equivalence.
func StreamFullyLabeled(sc *datagen.Scenario, seed int64, repeat int) bool {
	src := sc.StreamN(seed, repeat)
	for b := src.Next(); b != nil; b = src.Next() {
		for _, n := range b.Nodes {
			if len(n.Labels) == 0 {
				return false
			}
		}
		for _, e := range b.Edges {
			if len(e.Labels) == 0 {
				return false
			}
		}
	}
	return true
}

// unionSorted merges two sorted string slices into a sorted, deduplicated
// union.
func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
