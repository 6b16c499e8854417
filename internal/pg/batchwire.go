package pg

// Canonical wire codec for whole batches. The byte layout is exactly the
// per-batch encoding datagen.HashStream has always fed its SHA-256 — node
// and edge counts, then each record with sorted property keys — so the
// stream-hash goldens double as a regression suite for this codec. The
// repo benchmark replays its workload streams from this encoding, decoding
// each batch inside the source's Next.

// Codec bounds for untrusted batch headers: a count larger than
// maxBatchElements is rejected, and no count preallocates more than
// maxBatchPrealloc entries — past that the decoder grows by appending, so a
// corrupt header cannot allocate gigabytes before the data runs out. The
// cap is above every batch the benchmark decodes, which therefore allocate
// exactly as before.
const (
	maxBatchElements = 1 << 28
	maxBatchPrealloc = 1 << 16
)

// WriteBatch encodes one batch: node count, edge count, then every node
// (ID, labels, sorted props) and every edge (ID, labels, endpoints,
// endpoint labels, sorted props).
func WriteBatch(w *WireWriter, b *Batch) error {
	w.Uvarint(uint64(len(b.Nodes)))
	w.Uvarint(uint64(len(b.Edges)))
	for i := range b.Nodes {
		n := &b.Nodes[i]
		w.Varint(int64(n.ID))
		writeWireLabels(w, n.Labels)
		if err := writeWireProps(w, n.Props); err != nil {
			return err
		}
	}
	for i := range b.Edges {
		e := &b.Edges[i]
		w.Varint(int64(e.ID))
		writeWireLabels(w, e.Labels)
		w.Varint(int64(e.Src))
		w.Varint(int64(e.Dst))
		writeWireLabels(w, e.SrcLabels)
		writeWireLabels(w, e.DstLabels)
		if err := writeWireProps(w, e.Props); err != nil {
			return err
		}
	}
	return nil
}

// ReadBatch decodes one batch written by WriteBatch.
func ReadBatch(r *WireReader) (*Batch, error) {
	nodes, err := r.Uvarint(maxBatchElements)
	if err != nil {
		return nil, err
	}
	edges, err := r.Uvarint(maxBatchElements)
	if err != nil {
		return nil, err
	}
	b := &Batch{}
	if nodes > 0 {
		b.Nodes = make([]NodeRecord, 0, min(nodes, maxBatchPrealloc))
	}
	if edges > 0 {
		b.Edges = make([]EdgeRecord, 0, min(edges, maxBatchPrealloc))
	}
	for i := uint64(0); i < nodes; i++ {
		b.Nodes = append(b.Nodes, NodeRecord{})
		n := &b.Nodes[i]
		id, err := r.Varint()
		if err != nil {
			return nil, err
		}
		n.ID = ID(id)
		if n.Labels, err = readWireLabels(r); err != nil {
			return nil, err
		}
		if n.Props, err = readWireProps(r); err != nil {
			return nil, err
		}
	}
	for i := uint64(0); i < edges; i++ {
		b.Edges = append(b.Edges, EdgeRecord{})
		e := &b.Edges[i]
		id, err := r.Varint()
		if err != nil {
			return nil, err
		}
		e.ID = ID(id)
		if e.Labels, err = readWireLabels(r); err != nil {
			return nil, err
		}
		src, err := r.Varint()
		if err != nil {
			return nil, err
		}
		dst, err := r.Varint()
		if err != nil {
			return nil, err
		}
		e.Src, e.Dst = ID(src), ID(dst)
		if e.SrcLabels, err = readWireLabels(r); err != nil {
			return nil, err
		}
		if e.DstLabels, err = readWireLabels(r); err != nil {
			return nil, err
		}
		if e.Props, err = readWireProps(r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func writeWireLabels(w *WireWriter, labels []string) {
	w.Uvarint(uint64(len(labels)))
	for _, l := range labels {
		w.String(l)
	}
}

func readWireLabels(r *WireReader) ([]string, error) {
	n, err := r.Uvarint(maxBatchElements)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	labels := make([]string, 0, min(n, maxBatchPrealloc))
	for i := uint64(0); i < n; i++ {
		l, err := r.InternedString()
		if err != nil {
			return nil, err
		}
		labels = append(labels, l)
	}
	return labels, nil
}

func writeWireProps(w *WireWriter, props Properties) error {
	keys := SortedPropKeys(props)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		if err := w.Value(props[k]); err != nil {
			return err
		}
	}
	return nil
}

func readWireProps(r *WireReader) (Properties, error) {
	n, err := r.Uvarint(maxBatchElements)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	props := make(Properties, min(n, maxBatchPrealloc))
	for i := uint64(0); i < n; i++ {
		k, err := r.InternedString()
		if err != nil {
			return nil, err
		}
		v, err := r.Value()
		if err != nil {
			return nil, err
		}
		props[k] = v
	}
	return props, nil
}
