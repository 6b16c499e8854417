// Package align implements label alignment for integration scenarios — the
// paper's future-work item (c): "support integration scenarios when label
// semantics are not consistent (e.g., labels in different languages)". The
// paper proposes LLMs for semantic alignment; as an offline substitute this
// package aligns label variants by normalized string similarity (edit
// distance over case/punctuation-folded labels), which captures spelling
// variants (Organization/Organisation), case conventions (person/Person)
// and morphological variants (Employee/Employees). The similarity function
// is pluggable, so an embedding- or LLM-backed aligner can drop in.
package align

import (
	"strings"
	"unicode"
)

// Similarity scores two labels in [0, 1]; 1 means identical.
type Similarity func(a, b string) float64

// DefaultSimilarity is the normalized-edit-distance similarity over folded
// labels: 1 − dist/maxLen after lowercasing and stripping non-alphanumerics.
func DefaultSimilarity(a, b string) float64 {
	fa, fb := Fold(a), Fold(b)
	if fa == fb {
		return 1
	}
	maxLen := len(fa)
	if len(fb) > maxLen {
		maxLen = len(fb)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(fa, fb))/float64(maxLen)
}

// Fold lowercases a label and strips separators, so "Given_Name" and
// "givenname" compare equal.
func Fold(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(unicode.ToLower(r))
		}
	}
	return sb.String()
}

// Levenshtein computes the edit distance between two strings with the
// classic two-row dynamic program.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Aligner groups labels into alignment classes: labels whose similarity
// meets the threshold share a canonical representative.
type Aligner struct {
	sim       Similarity
	threshold float64

	// canonical maps each seen label to its class representative (the
	// first label of the class, deterministic in insertion order).
	canonical map[string]string
	order     []string // class representatives in insertion order
}

// NewAligner builds an aligner. A nil similarity uses DefaultSimilarity;
// the threshold is clamped into (0, 1] with 0.8 as the default for 0.
func NewAligner(sim Similarity, threshold float64) *Aligner {
	if sim == nil {
		sim = DefaultSimilarity
	}
	if threshold <= 0 || threshold > 1 {
		threshold = 0.8
	}
	return &Aligner{sim: sim, threshold: threshold, canonical: map[string]string{}}
}

// Canonical returns the alignment-class representative for the label,
// registering a new class when nothing similar has been seen. The first
// label of a class is its representative, so alignment is stable across a
// run.
func (a *Aligner) Canonical(label string) string {
	if rep, ok := a.canonical[label]; ok {
		return rep
	}
	best, bestSim := "", a.threshold
	for _, rep := range a.order {
		if s := a.sim(label, rep); s >= bestSim {
			best, bestSim = rep, s
		}
	}
	if best == "" {
		best = label
		a.order = append(a.order, label)
	}
	a.canonical[label] = best
	return best
}

// CanonicalSet maps a label set through the aligner, deduplicating labels
// that collapse onto one representative.
func (a *Aligner) CanonicalSet(labels []string) []string {
	if len(labels) == 0 {
		return labels
	}
	seen := map[string]struct{}{}
	out := make([]string, 0, len(labels))
	for _, l := range labels {
		rep := a.Canonical(l)
		if _, dup := seen[rep]; dup {
			continue
		}
		seen[rep] = struct{}{}
		out = append(out, rep)
	}
	return out
}

// Classes returns the registered alignment classes: representative →
// members (including itself), for reporting.
func (a *Aligner) Classes() map[string][]string {
	out := map[string][]string{}
	for label, rep := range a.canonical {
		out[rep] = append(out[rep], label)
	}
	return out
}
