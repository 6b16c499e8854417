package core

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"pghive/internal/align"
	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/pg"
)

// fieldClass is a Config field's checkpoint-fingerprint status.
type fieldClass uint8

const (
	// fingerprinted fields can change the discovered schema, so a
	// checkpoint refuses to resume under a different value.
	fingerprinted fieldClass = iota
	// executionOnly fields change how a run executes or what it reports,
	// never the schema; checkpoints resume across any value.
	executionOnly
	// quarantineOnly fields change the schema only under DriftQuarantine,
	// which decides which batches merge; they fingerprint only there.
	quarantineOnly
	// sectionCount fields are recorded by the checkpoint's section count,
	// one per pipeline, rather than by the fingerprint.
	sectionCount
)

// configFields classifies every Config field and gives each a change away
// from DefaultConfig(). A new field without an entry fails
// TestConfigFieldsClassified, so its fingerprint status is always decided.
var configFields = map[string]struct {
	class fieldClass
	set   func(*Config)
}{
	"Method":          {fingerprinted, func(c *Config) { c.Method = MethodMinHash }},
	"Theta":           {fingerprinted, func(c *Config) { c.Theta = 0.7 }},
	"Embedding":       {fingerprinted, func(c *Config) { c.Embedding.Dim = 7 }},
	"LabelWeight":     {fingerprinted, func(c *Config) { c.LabelWeight = 2 }},
	"SemanticLabels":  {fingerprinted, func(c *Config) { c.SemanticLabels = true }},
	"AlignLabels":     {fingerprinted, func(c *Config) { c.AlignLabels = true }},
	"AlignThreshold":  {fingerprinted, func(c *Config) { c.AlignThreshold = 0.6 }},
	"AlignSimilarity": {fingerprinted, func(c *Config) { c.AlignSimilarity = align.DefaultSimilarity }},
	"NodeParams":      {fingerprinted, func(c *Config) { c.NodeParams = &lsh.Params{Bucket: 1, Tables: 4} }},
	"EdgeParams":      {fingerprinted, func(c *Config) { c.EdgeParams = &lsh.Params{Bucket: 1, Tables: 4} }},
	"MinHashRows":     {fingerprinted, func(c *Config) { c.MinHashRows = 4 }},
	"SampleDatatypes": {fingerprinted, func(c *Config) { c.SampleDatatypes = true }},
	"Participation":   {fingerprinted, func(c *Config) { c.Participation = true }},
	"SampleFraction":  {fingerprinted, func(c *Config) { c.SampleFraction = 0.5 }},
	"SampleMin":       {fingerprinted, func(c *Config) { c.SampleMin = 10 }},
	"TrackMembers":    {fingerprinted, func(c *Config) { c.TrackMembers = true }},
	"MemBudgetBytes":  {fingerprinted, func(c *Config) { c.MemBudgetBytes = 64 << 20 }},
	"Seed":            {fingerprinted, func(c *Config) { c.Seed = 99 }},
	"Parallelism":     {executionOnly, func(c *Config) { c.Parallelism = 3 }},
	"Telemetry":       {executionOnly, func(c *Config) { c.Telemetry = obs.NewRegistry() }},
	"DriftLog":        {executionOnly, func(c *Config) { c.DriftLog = NewDriftLog(io.Discard) }},
	"OnEpoch":         {executionOnly, func(c *Config) { c.OnEpoch = func(EpochSnapshot) {} }},
	"PipelineDepth":   {executionOnly, func(c *Config) { c.PipelineDepth = 8 }},
	"DriftPolicy":     {quarantineOnly, func(c *Config) { c.DriftPolicy = DriftAlert }},
	"EpochInterval":   {quarantineOnly, func(c *Config) { c.EpochInterval = 3 }},
	"Shards":          {sectionCount, func(c *Config) { c.Shards = 4 }},
}

// TestConfigFieldsClassified declares, once, which Config fields the
// checkpoint fingerprint covers. The table must name exactly the struct's
// fields, and changing each field away from DefaultConfig() must change
// fingerprint() exactly when the field is fingerprinted — quarantine-only
// fields change it under DriftQuarantine and nowhere else.
func TestConfigFieldsClassified(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := configFields[typ.Field(i).Name]; !ok {
			t.Errorf("Config.%s has no fingerprint class in configFields", typ.Field(i).Name)
		}
	}
	for name, f := range configFields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("configFields names %s, which is not a Config field", name)
			continue
		}
		check := func(base Config, wantChange bool, where string) {
			t.Helper()
			c := base
			f.set(&c)
			before := reflect.ValueOf(base).FieldByName(name)
			after := reflect.ValueOf(c).FieldByName(name)
			if after.Kind() == reflect.Func && before.IsNil() == after.IsNil() ||
				after.Kind() != reflect.Func && before.Equal(after) {
				t.Fatalf("%s: setter leaves the field at its %s value", name, where)
			}
			if changed := c.fingerprint() != base.fingerprint(); changed != wantChange {
				t.Errorf("%s (%s): fingerprint changed = %t, want %t", name, where, changed, wantChange)
			}
		}
		base := DefaultConfig()
		check(base, f.class == fingerprinted, "default")
		if f.class == quarantineOnly {
			q := base
			q.DriftPolicy = DriftQuarantine
			check(q, true, "quarantine")
		}
	}
}

// TestResumeRejectsAlignSimilarityChange: a checkpoint written with label
// alignment under a custom scorer must refuse to resume under the default
// scorer, and vice versa — the scorer decides alignment classes and so the
// schema. The same custom scorer resumes.
func TestResumeRejectsAlignSimilarityChange(t *testing.T) {
	batches := faultFreeBatches(t, 100, 3)
	custom := DefaultConfig()
	custom.AlignLabels = true
	custom.AlignSimilarity = func(a, b string) float64 { return 1 }
	def := custom
	def.AlignSimilarity = nil

	for _, tc := range []struct {
		name           string
		writer, reader Config
		wantErr        bool
	}{
		{"custom-to-default", custom, def, true},
		{"default-to-custom", def, custom, true},
		{"custom-to-custom", custom, custom, false},
	} {
		ck := &statesCheckpointer{}
		if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), tc.writer, RunOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeCheckpointSchemas(ck.states[len(ck.states)-1], tc.reader)
		if tc.wantErr && (err == nil || !strings.Contains(err.Error(), "different configuration")) {
			t.Errorf("%s: resume err = %v, want a fingerprint mismatch", tc.name, err)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: resume: %v", tc.name, err)
		}
	}
}
