package pg

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzParseValue: arbitrary text must parse without panicking and the
// result must render back to text losslessly enough to re-parse to the
// same kind.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"", "42", "-3.5", "true", "2024-01-01", "19/12/1999", "2024-01-31T10:30:00Z", "plain", "1e309"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		v := ParseValue(input)
		rendered := v.String()
		again := ParseValue(rendered)
		if v.Kind() != KindString && v.Kind() != KindNull && again.Kind() != v.Kind() {
			// Permitted narrowings: DOUBLE -> INT for integral floats
			// ("2.0" renders as "2"); NULL renders as the text "null".
			if !(v.Kind() == KindFloat && again.Kind() == KindInt) {
				t.Fatalf("kind unstable: %q -> %v -> %q -> %v", input, v.Kind(), rendered, again.Kind())
			}
		}
	})
}

// FuzzReadJSONL: arbitrary bytes must never panic the graph loader.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	g := NewGraph()
	n := g.AddNode([]string{"A"}, Properties{"k": Int(1)})
	m := g.AddNode(nil, nil)
	if _, err := g.AddEdge([]string{"R"}, n, m, nil); err != nil {
		f.Fatal(err)
	}
	if err := WriteJSONL(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"type":"node","id":1}`)
	f.Add(`{"type":"edge","id":1,"src":0,"dst":0}`)
	f.Add("{}")
	// Truncation and malformation crashers from the fault-injection work:
	// streams cut mid-object, mistyped fields, duplicate IDs, nested noise.
	f.Add("{\"type\":\"node\",\"id\":1}\n{\"type\":\"no")
	f.Add(`{"type":"node","id":"two"}`)
	f.Add("{\"type\":\"node\",\"id\":1}\n{\"type\":\"node\",\"id\":1}")
	f.Add(`{"type":"node","id":2,"props":{"k":"v","k2":""}}`)
	f.Add(`{"type":"edge","id":9,"src":1,"dst":1,"labels":[]}`)
	f.Add("\xff\xfe{\"type\":\"node\"}")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadJSONL(strings.NewReader(input))
		if err != nil {
			// Failures must be typed ParseErrors with a positive line.
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadJSONL error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("ParseError.Line = %d, want >= 1", pe.Line)
			}
			return
		}
		// A successfully loaded graph must round-trip.
		var out bytes.Buffer
		if err := WriteJSONL(&out, g); err != nil {
			t.Fatalf("loaded graph fails to serialize: %v", err)
		}
	})
}

// FuzzReadCSV: arbitrary node CSVs must never panic the loader.
func FuzzReadCSV(f *testing.F) {
	f.Add("_id,_labels,name\n1,Person,Ann\n")
	f.Add("_id,_labels\n")
	f.Add("not,a,header\n1,2,3\n")
	// Truncation and malformation crashers: short rows, unbalanced quotes,
	// duplicate IDs, streams cut mid-row.
	f.Add("_id,_labels,name\n1,Person,Ann\n2,Person\n")
	f.Add("_id,_labels\n1,\"A\n")
	f.Add("_id,_labels\n1,A\n1,B\n")
	f.Add("_id,_labels,a,b\n1,A,x")
	f.Add("_id,_labels\nxyz,A\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadCSV(strings.NewReader(input), nil)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadCSV error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Line < 1 {
				t.Fatalf("ParseError.Line = %d, want >= 1", pe.Line)
			}
			return
		}
		g.ComputeStats()
	})
}

// FuzzReadBatch: arbitrary bytes must decode or fail cleanly, and a decoded
// batch must survive a re-encode round trip unchanged.
func FuzzReadBatch(f *testing.F) {
	f.Add(encodeBatch(f, poolBatch(6)))
	f.Add(encodeBatch(f, &Batch{}))
	f.Add([]byte{0x80, 0x80, 0x40, 0x00}) // 2^20 nodes declared, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBatch(NewWireReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc := encodeBatch(t, b)
		again, err := ReadBatch(NewWireReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !bytes.Equal(encodeBatch(t, again), enc) {
			t.Fatal("batch changed across an encode/decode round trip")
		}
	})
}
