package main

import (
	"bytes"
	"fmt"
	"time"

	"pghive/internal/pg"
)

// stream is a workload's input as the program sees it: batches encoded
// once, at set-up, in the wire format.
type stream struct {
	data     []byte // concatenated pg.WriteBatch encodings
	batches  int
	elements int
}

func encodeStream(batches []*pg.Batch) (stream, error) {
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	st := stream{batches: len(batches)}
	for i, b := range batches {
		if err := pg.WriteBatch(w, b); err != nil {
			return stream{}, fmt.Errorf("encode batch %d: %w", i, err)
		}
		st.elements += b.Len()
	}
	if err := w.Flush(); err != nil {
		return stream{}, fmt.Errorf("encode stream: %w", err)
	}
	st.data = buf.Bytes()
	return st, nil
}

// wireSource replays an encoded stream as a pg.ErrSource, decoding each
// batch inside Next with pg.ReadBatch, so decode sits on the program's real
// ingest path. It records when each batch was handed out, which the epoch
// lag is measured from.
type wireSource struct {
	st     stream
	r      *pg.WireReader
	next   int
	handed []time.Time // by stream sequence number
	err    error

	sink   *benchSink
	parent int
}

func newWireSource(st stream, sink *benchSink, parent int) *wireSource {
	return &wireSource{
		st:     st,
		r:      pg.NewWireReader(bytes.NewReader(st.data)),
		handed: make([]time.Time, st.batches),
		sink:   sink,
		parent: parent,
	}
}

// Next implements pg.ErrSource.
func (s *wireSource) Next() (*pg.Batch, error) {
	if s.err != nil || s.next >= s.st.batches {
		return nil, s.err
	}
	start := time.Now()
	b, err := pg.ReadBatch(s.r)
	end := time.Now()
	if err != nil {
		s.err = fmt.Errorf("decode batch %d: %w", s.next, err)
		return nil, s.err
	}
	s.sink.benchSpan(0, s.parent, "bench.decode", "pg", tidDecode, start, end, b.Len())
	s.handed[s.next] = end
	s.next++
	return b, nil
}

// failed is how many of the stream's batches never reached the program.
func (s *wireSource) failed() int { return s.st.batches - s.next }

// infallible adapts the source to pg.Source for core.Discover: a decode
// error ends the stream early and stays in wireSource.err.
type infallible struct{ *wireSource }

// Next implements pg.Source.
func (s infallible) Next() *pg.Batch {
	b, _ := s.wireSource.Next()
	return b
}
