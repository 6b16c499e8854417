// Package schemi implements the SchemI baseline (Lbath, Bonifati, Harmer;
// EDBT 2021) as characterized by the PG-HIVE paper: schema inference for
// property graphs that assumes every node and edge is labeled, treats each
// distinct label as a type, groups similar types by shared structure, and
// builds a pattern hierarchy through pairwise property-set comparisons. It
// infers node and edge types but no constraints, and it cannot run on
// datasets with missing labels.
package schemi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// ErrUnlabeled is returned when any element lacks labels: SchemI requires
// complete type label declarations (Table 1 of the PG-HIVE paper).
var ErrUnlabeled = errors.New("schemi: SchemI requires fully labeled nodes and edges")

// Config controls a SchemI run.
type Config struct {
	// MergeThreshold is the property-set Jaccard similarity above which two
	// label types are considered the same conceptual type and merged
	// ("groups similar node types"). The original system merges types with
	// largely shared structure.
	MergeThreshold float64
}

// DefaultConfig mirrors the baseline's published setup.
func DefaultConfig() Config {
	return Config{MergeThreshold: 0.75}
}

// Result is the outcome of a SchemI run.
type Result struct {
	NodeTypes []*schema.Type
	EdgeTypes []*schema.Type
	// NodeAssignments / EdgeAssignments map batch indexes to type indexes.
	NodeAssignments []int
	EdgeAssignments []int
	// Hierarchy holds the inferred subtype relations between patterns:
	// Hierarchy[i] lists the pattern signatures subsumed by pattern i.
	Hierarchy map[string][]string
	// MergedPatterns is the concise pattern set after agglomerative
	// merging.
	MergedPatterns []pattern
	// PatternAssignments maps each node (by batch index) to its most
	// specific merged pattern, or -1 if none subsumes it.
	PatternAssignments []int
	Elapsed            time.Duration
}

// Discover infers node and edge types from a fully labeled batch.
func Discover(b *pg.Batch, cfg Config) (*Result, error) {
	start := time.Now()
	if cfg.MergeThreshold <= 0 {
		cfg = DefaultConfig()
	}
	for i := range b.Nodes {
		if len(b.Nodes[i].Labels) == 0 {
			return nil, ErrUnlabeled
		}
	}
	for i := range b.Edges {
		if len(b.Edges[i].Labels) == 0 {
			return nil, ErrUnlabeled
		}
	}

	res := &Result{Hierarchy: map[string][]string{}}
	tab := schema.NewSymtab()

	// --- Node types: one group per distinct label set, then "groups
	// similar node types based on shared labels" (the PG-HIVE paper's
	// characterization): any two groups sharing a label merge. This is the
	// baseline's documented weakness on multi-label and integration
	// datasets — a shared integration label (HetionetNode, mb6, Message)
	// collapses otherwise distinct types.
	nodeGroups := map[string][]int{}
	for i := range b.Nodes {
		key := pg.LabelSetKey(b.Nodes[i].Labels)
		nodeGroups[key] = append(nodeGroups[key], i)
	}
	groupKeys := sortedKeys(nodeGroups)
	labelSets := make([]schema.StringSet, len(groupKeys))
	for gi, key := range groupKeys {
		labelSets[gi] = schema.NewStringSet(strings.Split(key, "&")...)
	}
	nodeTypeOf := mergeSharingLabels(labelSets)

	numNodeTypes := 0
	for _, t := range nodeTypeOf {
		if t+1 > numNodeTypes {
			numNodeTypes = t + 1
		}
	}
	res.NodeTypes = make([]*schema.Type, numNodeTypes)
	for i := range res.NodeTypes {
		res.NodeTypes[i] = schema.NewType(tab, schema.NodeKind)
	}
	res.NodeAssignments = make([]int, len(b.Nodes))
	nodeTypeByID := make(map[pg.ID]int, len(b.Nodes))
	for gi, key := range groupKeys {
		ti := nodeTypeOf[gi]
		for _, i := range nodeGroups[key] {
			res.NodeTypes[ti].ObserveNode(&b.Nodes[i], true)
			res.NodeAssignments[i] = ti
			nodeTypeByID[b.Nodes[i].ID] = ti
		}
	}

	// Pattern hierarchy: pairwise subsumption over the distinct node
	// patterns (an O(P²) step of the original algorithm).
	pats := nodePatterns(b)
	res.Hierarchy = patternHierarchy(pats)

	// Concise-schema construction: iteratively merge the most similar
	// pattern pair per label group until no pair is similar enough — the
	// agglomerative step that makes the original produce compact type
	// descriptions. Its cost grows steeply with the number of distinct
	// patterns, which property noise multiplies.
	res.MergedPatterns = agglomeratePatterns(pats, cfg.MergeThreshold)

	// Instance mapping: assign every node to its most specific subsuming
	// merged pattern (instances belong to the most specific type of the
	// hierarchy).
	res.PatternAssignments = assignMostSpecific(b, res.MergedPatterns)

	// Verification pass: re-match every node against its type's pattern
	// set, as the original maps instances to inferred types.
	verifyNodes(b, res)

	// --- Edge types: one group per (edge label set, source node type,
	// target node type) — endpoint types come from the baseline's own node
	// typing, so node-type conflation propagates — then edge groups
	// sharing an edge label merge, the same shared-label rule.
	edgeGroups := map[string][]int{}
	for i := range b.Edges {
		e := &b.Edges[i]
		key := fmt.Sprintf("%s|%d>%d", pg.LabelSetKey(e.Labels), endpointType(nodeTypeByID, e.Src), endpointType(nodeTypeByID, e.Dst))
		edgeGroups[key] = append(edgeGroups[key], i)
	}
	edgeKeys := sortedKeys(edgeGroups)
	edgeLabelSets := make([]schema.StringSet, len(edgeKeys))
	for gi, key := range edgeKeys {
		labels := key[:strings.IndexByte(key, '|')]
		edgeLabelSets[gi] = schema.NewStringSet(strings.Split(labels, "&")...)
	}
	edgeTypeOf := mergeSharingLabels(edgeLabelSets)
	numEdgeTypes := 0
	for _, t := range edgeTypeOf {
		if t+1 > numEdgeTypes {
			numEdgeTypes = t + 1
		}
	}
	res.EdgeTypes = make([]*schema.Type, numEdgeTypes)
	for i := range res.EdgeTypes {
		res.EdgeTypes[i] = schema.NewType(tab, schema.EdgeKind)
	}
	res.EdgeAssignments = make([]int, len(b.Edges))
	for gi, key := range edgeKeys {
		ti := edgeTypeOf[gi]
		for _, i := range edgeGroups[key] {
			res.EdgeTypes[ti].ObserveEdge(&b.Edges[i], true)
			res.EdgeAssignments[i] = ti
		}
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

// primaryLabel returns the alphabetically first label: the conflation rule
// for multi-labeled elements.
func primaryLabel(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	min := labels[0]
	for _, l := range labels[1:] {
		if l < min {
			min = l
		}
	}
	return min
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// endpointType resolves an edge endpoint to the baseline's node type
// index, or -1 when the node is unknown.
func endpointType(byID map[pg.ID]int, id pg.ID) int {
	if t, ok := byID[id]; ok {
		return t
	}
	return -1
}

// mergeSharingLabels unions groups whose label sets intersect and returns
// a group→type mapping with dense type indexes.
func mergeSharingLabels(sets []schema.StringSet) []int {
	parent := make([]int, len(sets))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Union groups through a label -> first-group index map.
	firstWithLabel := map[string]int{}
	for i, set := range sets {
		for l := range set {
			if j, ok := firstWithLabel[l]; ok {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			} else {
				firstWithLabel[l] = i
			}
		}
	}
	dense := map[int]int{}
	out := make([]int, len(sets))
	for i := range sets {
		r := find(i)
		t, ok := dense[r]
		if !ok {
			t = len(dense)
			dense[r] = t
		}
		out[i] = t
	}
	return out
}

// nodePatterns extracts the distinct (label set, property key set) patterns
// with canonical signatures.
func nodePatterns(b *pg.Batch) []pattern {
	seen := map[string]pattern{}
	for i := range b.Nodes {
		n := &b.Nodes[i]
		p := pattern{labels: pg.LabelSetKey(n.Labels), keys: sortedProps(n.Props)}
		seen[p.signature()] = p
	}
	out := make([]pattern, 0, len(seen))
	for _, sig := range sortedKeys(seen) {
		out = append(out, seen[sig])
	}
	return out
}

type pattern struct {
	labels string
	keys   []string
}

func (p pattern) signature() string {
	return p.labels + "|" + strings.Join(p.keys, ",")
}

func sortedProps(props pg.Properties) []string {
	keys := props.Keys()
	sort.Strings(keys)
	return keys
}

// agglomeratePatterns iteratively merges the most similar pattern pair
// within each label group (key-set Jaccard ≥ threshold) until none
// qualifies, producing the concise pattern set. Worst case O(P³) per label
// group — the cost center that makes the baseline degrade on noisy,
// pattern-rich data.
func agglomeratePatterns(pats []pattern, threshold float64) []pattern {
	byLabel := map[string][]pattern{}
	for _, p := range pats {
		byLabel[p.labels] = append(byLabel[p.labels], p)
	}
	var out []pattern
	for _, label := range sortedKeys(byLabel) {
		group := byLabel[label]
		for {
			bi, bj, best := -1, -1, threshold
			for i := 0; i < len(group); i++ {
				for j := i + 1; j < len(group); j++ {
					if s := keyJaccard(group[i].keys, group[j].keys); s >= best {
						bi, bj, best = i, j, s
					}
				}
			}
			if bi < 0 {
				break
			}
			merged := pattern{labels: label, keys: unionSorted(group[bi].keys, group[bj].keys)}
			group[bi] = merged
			group = append(group[:bj], group[bj+1:]...)
		}
		out = append(out, group...)
	}
	return out
}

// keyJaccard computes Jaccard similarity of two sorted key slices.
func keyJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// assignMostSpecific maps each node to the most specific merged pattern of
// its label group that subsumes its property keys (fewest extra keys),
// or -1 when none does. O(N · P_group · k).
func assignMostSpecific(b *pg.Batch, pats []pattern) []int {
	byLabel := map[string][]int{}
	for i, p := range pats {
		byLabel[p.labels] = append(byLabel[p.labels], i)
	}
	out := make([]int, len(b.Nodes))
	for ni := range b.Nodes {
		n := &b.Nodes[ni]
		keys := sortedProps(n.Props)
		best, bestExtra := -1, 1<<30
		for _, pi := range byLabel[pg.LabelSetKey(n.Labels)] {
			p := pats[pi]
			if !subset(keys, p.keys) {
				continue
			}
			if extra := len(p.keys) - len(keys); extra < bestExtra {
				best, bestExtra = pi, extra
			}
		}
		out[ni] = best
	}
	return out
}

// patternHierarchy computes, for every pattern, which other patterns it
// subsumes (same labels, superset of property keys): the subtype inference
// step, quadratic in the number of patterns.
func patternHierarchy(pats []pattern) map[string][]string {
	out := map[string][]string{}
	for i := range pats {
		for j := range pats {
			if i == j || pats[i].labels != pats[j].labels {
				continue
			}
			if subset(pats[j].keys, pats[i].keys) && len(pats[j].keys) < len(pats[i].keys) {
				sig := pats[i].signature()
				out[sig] = append(out[sig], pats[j].signature())
			}
		}
	}
	return out
}

// subset reports whether sorted slice a ⊆ sorted slice b.
func subset(a, b []string) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// verifyNodes re-matches each node's property keys against its assigned
// type's accumulated key set — the instance-to-type mapping pass of the
// original algorithm.
func verifyNodes(b *pg.Batch, res *Result) {
	for i := range b.Nodes {
		ti := res.NodeAssignments[i]
		keys := res.NodeTypes[ti].PropKeySet()
		for k := range b.Nodes[i].Props {
			if !keys.Has(k) {
				// Cannot happen: the type accumulated this instance. The
				// check is the verification work the original performs.
				panic("schemi: verification failed")
			}
		}
	}
}
