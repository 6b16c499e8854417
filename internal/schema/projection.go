package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Canonical projections of a schema for equivalence and monotonicity
// checks. Two discovery strategies that are not byte-identical (a sharded
// run versus a serial one) still have to agree on these.

// LabeledProjection canonicalizes the labeled portion of a finalized
// schema: for every labeled type, the sorted label set maps to its instance
// count and per-property data type + mandatory flag. Abstract (unlabeled)
// types are summarized by their total instance count only — how unlabeled
// elements group is clustering-order-dependent across strategies, but
// every element must still be accounted for.
func LabeledProjection(def *Def) map[string]string {
	proj := map[string]string{}
	abstract := 0
	add := func(kind string, labels []string, isAbstract bool, instances int, props []PropertyDef) {
		if isAbstract {
			abstract += instances
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "inst=%d", instances)
		sorted := append([]PropertyDef(nil), props...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		for _, p := range sorted {
			fmt.Fprintf(&b, " %s:%v/mand=%t", p.Key, p.DataType, p.Mandatory)
		}
		key := append([]string(nil), labels...)
		sort.Strings(key)
		proj[kind+":"+strings.Join(key, "|")] = b.String()
	}
	for _, n := range def.Nodes {
		add("node", n.Labels, n.Abstract, n.Instances, n.Properties)
	}
	for _, e := range def.Edges {
		add("edge", e.Labels, e.Abstract, e.Instances, e.Properties)
	}
	proj["abstract-instances"] = fmt.Sprintf("%d", abstract)
	return proj
}

// TypeFingerprint folds an accumulating (pre-finalize) schema into the
// label-set → property-key-union map monotonicity checks compare: under
// Algorithm 2 both the type set and each union may only grow batch over
// batch (PG-HIVE Lemmas 1–2).
func TypeFingerprint(s *Schema) map[string][]string {
	out := map[string][]string{}
	fold := func(prefix string, types []*Type) {
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
			out[key] = sortedKeys(props)
		}
	}
	fold("n:", s.NodeTypes)
	fold("e:", s.EdgeTypes)
	return out
}

// FingerprintSubset reports whether fingerprint a is contained in b: every
// type key of a exists in b and its property union is a subset of b's —
// the monotone-growth order on TypeFingerprint outputs.
func FingerprintSubset(a, b map[string][]string) bool {
	for key, props := range a {
		bProps, ok := b[key]
		if !ok {
			return false
		}
		set := make(map[string]struct{}, len(bProps))
		for _, k := range bProps {
			set[k] = struct{}{}
		}
		for _, k := range props {
			if _, ok := set[k]; !ok {
				return false
			}
		}
	}
	return true
}

// EquivalenceLevel grades how strong a sharded-vs-serial equivalence claim
// a workload supports. Sharding re-partitions each batch's elements across
// pipelines, which changes LSH cluster composition; what survives that
// depends on the stream's adversarial structure.
type EquivalenceLevel int

const (
	// EquivExact: the full labeled projection is identical — label sets,
	// instance counts, per-property data types and mandatory flags. Holds
	// when every element is labeled and clusters are label-pure (elements
	// with different label sets have dissimilar properties).
	EquivExact EquivalenceLevel = iota
	// EquivLabeled: the labeled type key set, the per-kind property-key
	// unions, and the per-kind instance totals agree. The right claim when
	// the stream has unlabeled elements: Algorithm 2 may absorb an
	// unlabeled candidate into a labeled type (rule 2 of MergeTypes), and
	// which type absorbs it is arrival-order-dependent.
	EquivLabeled
	// EquivCoverage: per-kind individual-label coverage, property-key
	// unions, and instance totals agree. The right claim under label
	// mixing (supernode rerouting, property/label noise): similar elements
	// with different labels land in one cluster, so the candidate label
	// SETS are partition-dependent — but every label carried by a labeled
	// element still surfaces in some labeled type, every property key in
	// some type, and every element is counted exactly once.
	EquivCoverage
)

// String names the level for reports and CSVs.
func (l EquivalenceLevel) String() string {
	switch l {
	case EquivExact:
		return "exact"
	case EquivLabeled:
		return "labeled"
	default:
		return "coverage"
	}
}

// EquivalenceDiff compares a sharded schema against its serial reference
// at the given level and describes the differences, or returns "" when
// equivalent.
func EquivalenceDiff(want, got *Def, level EquivalenceLevel) string {
	if level == EquivExact {
		return projectionDiff(LabeledProjection(want), LabeledProjection(got))
	}
	return projectionDiff(weakProjection(want, level), weakProjection(got, level))
}

// weakProjection canonicalizes the partition-invariant part of a schema at
// the EquivLabeled or EquivCoverage level.
func weakProjection(def *Def, level EquivalenceLevel) map[string]string {
	proj := map[string]string{}
	totals := map[string]int{}
	props := map[string]map[string]struct{}{"node": {}, "edge": {}}
	labels := map[string]map[string]struct{}{"node": {}, "edge": {}}
	fold := func(kind string, typeLabels []string, abstract bool, instances int, typeProps []PropertyDef) {
		totals[kind] += instances
		for _, p := range typeProps {
			props[kind][p.Key] = struct{}{}
		}
		if abstract {
			return
		}
		if level == EquivCoverage {
			for _, l := range typeLabels {
				labels[kind][l] = struct{}{}
			}
			return
		}
		key := append([]string(nil), typeLabels...)
		sort.Strings(key)
		proj[kind+":"+strings.Join(key, "|")] = "labeled"
	}
	for _, n := range def.Nodes {
		fold("node", n.Labels, n.Abstract, n.Instances, n.Properties)
	}
	for _, e := range def.Edges {
		fold("edge", e.Labels, e.Abstract, e.Instances, e.Properties)
	}
	for _, kind := range []string{"node", "edge"} {
		proj["instances:"+kind] = fmt.Sprintf("%d", totals[kind])
		proj["props:"+kind] = strings.Join(sortedKeys(props[kind]), " ")
		if level == EquivCoverage {
			proj["labels:"+kind] = strings.Join(sortedKeys(labels[kind]), " ")
		}
	}
	return proj
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// projectionDiff compares two labeled projections and describes the first
// few differences, or returns "" when they agree.
func projectionDiff(want, got map[string]string) string {
	var diffs []string
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("missing %q", k))
		case g != want[k]:
			diffs = append(diffs, fmt.Sprintf("%q: %q vs %q", k, want[k], g))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("unexpected %q", k))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("... and %d more", len(diffs)-5))
	}
	return strings.Join(diffs, "; ")
}
