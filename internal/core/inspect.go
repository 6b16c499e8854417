package core

import (
	"bytes"

	"pghive/internal/schema"
)

// DecodeCheckpointSchemas opens a checkpoint written by Run — a
// single-pipeline PGCK11 stream or a sharded PGCK12 container — and
// returns every pipeline's accumulated schema (one per shard, in shard
// order). cfg must match the configuration the checkpoint was written
// under, exactly as a resume would require; the fingerprint gate rejects
// anything else.
//
// This is the soak harness's window into a running discovery: decoding the
// latest checkpoint proves it is resumable, and the schemas let invariant
// checks (monotone growth across checkpoints) run without disturbing the
// pipeline that wrote it.
func DecodeCheckpointSchemas(state []byte, cfg Config) ([]*schema.Schema, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards > 1 && bytes.HasPrefix(state, []byte(shardCheckpointMagic)) {
		sections, _, _, err := decodeShardContainer(state, cfg, nil)
		if err != nil {
			return nil, err
		}
		out := make([]*schema.Schema, len(sections))
		for i := range sections {
			p, _, _, err := ResumePipeline(bytes.NewReader(sections[i]), shardConfig(cfg, i))
			if err != nil {
				return nil, err
			}
			out[i] = p.Schema()
		}
		return out, nil
	}
	p, _, _, err := ResumePipeline(bytes.NewReader(state), cfg)
	if err != nil {
		return nil, err
	}
	return []*schema.Schema{p.Schema()}, nil
}
