package vectorize

import (
	"fmt"
	"sort"

	"pghive/internal/embed"
	"pghive/internal/pg"
)

// Session checkpoint codec. The embedding session is the one piece of
// cross-batch preprocessing state whose exact contents matter for replaying
// a run: a label-set token keeps the vector it was assigned when first
// trained, so a resumed pipeline must restore the token → vector table
// verbatim (retraining would converge to different — equally valid, but not
// identical — embeddings). Sentences are also retained: they are the dedup
// set and the corpus for the adaptive-dimensionality retrain.
//
// The weighted (labelWeight-scaled) memo is derived state and is rebuilt on
// restore rather than serialized.

// Codec bounds for untrusted counts; no count preallocates more than
// maxPrealloc entries.
const (
	maxTokens   = 1 << 24
	maxDim      = 1 << 12
	maxPrealloc = 1 << 12
)

// WriteState encodes the session's cross-batch state onto a wire stream.
func (s *Session) WriteState(w *pg.WireWriter) error {
	tokens := make([]string, 0, len(s.sentences))
	for tok := range s.sentences {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	w.Uvarint(uint64(len(tokens)))
	for _, tok := range tokens {
		w.String(tok)
		sentence := s.sentences[tok]
		w.Uvarint(uint64(len(sentence)))
		for _, word := range sentence {
			w.String(word)
		}
	}

	if s.model == nil {
		w.Bool(false)
		return nil
	}
	w.Bool(true)
	w.Uvarint(uint64(s.model.Dim()))
	vocab := s.model.Tokens() // sorted
	w.Uvarint(uint64(len(vocab)))
	for _, tok := range vocab {
		w.String(tok)
		for _, x := range s.model.Vector(tok) {
			w.Float64(x)
		}
	}
	return nil
}

// ReadState restores the session's cross-batch state from a wire stream.
// The session must be freshly built with the same Config as the run that
// wrote the state.
func (s *Session) ReadState(r *pg.WireReader) error {
	tokenCount, err := r.Uvarint(maxTokens)
	if err != nil {
		return fmt.Errorf("vectorize: sentence count: %w", err)
	}
	s.sentences = make(map[string][]string, min(tokenCount, maxPrealloc))
	for i := uint64(0); i < tokenCount; i++ {
		tok, err := r.String()
		if err != nil {
			return fmt.Errorf("vectorize: sentence token %d: %w", i, err)
		}
		wordCount, err := r.Uvarint(maxTokens)
		if err != nil {
			return err
		}
		sentence := make([]string, 0, min(wordCount, maxPrealloc))
		for j := uint64(0); j < wordCount; j++ {
			word, err := r.String()
			if err != nil {
				return err
			}
			sentence = append(sentence, word)
		}
		s.sentences[tok] = sentence
	}

	hasModel, err := r.Bool()
	if err != nil {
		return err
	}
	s.model = nil
	s.weighted = map[string][]float64{}
	if !hasModel {
		return nil
	}
	dim, err := r.Uvarint(maxDim)
	if err != nil {
		return fmt.Errorf("vectorize: model dim: %w", err)
	}
	vocabCount, err := r.Uvarint(maxTokens)
	if err != nil {
		return fmt.Errorf("vectorize: vocab count: %w", err)
	}
	model := embed.NewModel(int(dim))
	for i := uint64(0); i < vocabCount; i++ {
		tok, err := r.String()
		if err != nil {
			return fmt.Errorf("vectorize: vocab token %d: %w", i, err)
		}
		vec := make([]float64, dim)
		for d := range vec {
			if vec[d], err = r.Float64(); err != nil {
				return err
			}
		}
		model.Set(tok, vec)
	}
	s.model = model
	s.weighted = make(map[string][]float64, vocabCount)
	for _, tok := range model.Tokens() {
		s.memoize(tok, model.Vector(tok))
	}
	return nil
}
