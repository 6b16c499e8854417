package core

import "pghive/internal/schema"

// DecodeCheckpointSchemas opens a checkpoint written by Run and returns
// every pipeline's accumulated schema: one, or one per shard in shard order.
// cfg must match the configuration and shard count the checkpoint was
// written under, exactly as a resume would require; restore rejects
// anything else.
//
// This is the soak harness's window into a running discovery: decoding the
// latest checkpoint proves it is resumable, and the schemas let invariant
// checks (monotone growth across checkpoints) run without disturbing the
// pipeline that wrote it.
func DecodeCheckpointSchemas(state []byte, cfg Config) ([]*schema.Schema, error) {
	cfg = cfg.withDefaults()
	pipes := newPipelines(cfg)
	if _, _, err := restore(state, cfg, pipes, nil); err != nil {
		return nil, err
	}
	out := make([]*schema.Schema, len(pipes))
	for i, p := range pipes {
		out[i] = p.schema
	}
	return out, nil
}
