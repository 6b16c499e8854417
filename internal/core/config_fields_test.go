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

// configSetters gives every Config field a change away from
// DefaultConfig(); the field's class is its `checkpoint` tag (config.go).
// TestConfigMatrix applies the execution-only and quarantine-only setters to
// its rows, so each also changes the rows' values: Parallelism goes from 1
// to 8, and PipelineDepth d to d+1 (8 to 1).
var configSetters = map[string]func(*Config){
	"Method":          func(c *Config) { c.Method = MethodMinHash },
	"Theta":           func(c *Config) { c.Theta = 0.7 },
	"Embedding":       func(c *Config) { c.Embedding.Dim = 7 },
	"LabelWeight":     func(c *Config) { c.LabelWeight = 2 },
	"SemanticLabels":  func(c *Config) { c.SemanticLabels = true },
	"AlignLabels":     func(c *Config) { c.AlignLabels = true },
	"AlignThreshold":  func(c *Config) { c.AlignThreshold = 0.6 },
	"AlignSimilarity": func(c *Config) { c.AlignSimilarity = align.DefaultSimilarity },
	"NodeParams":      func(c *Config) { c.NodeParams = &lsh.Params{Bucket: 1, Tables: 4} },
	"EdgeParams":      func(c *Config) { c.EdgeParams = &lsh.Params{Bucket: 1, Tables: 4} },
	"MinHashRows":     func(c *Config) { c.MinHashRows = 4 },
	"SampleDatatypes": func(c *Config) { c.SampleDatatypes = true },
	"Participation":   func(c *Config) { c.Participation = true },
	"SampleFraction":  func(c *Config) { c.SampleFraction = 0.5 },
	"SampleMin":       func(c *Config) { c.SampleMin = 10 },
	"TrackMembers":    func(c *Config) { c.TrackMembers = true },
	"MemBudgetBytes":  func(c *Config) { c.MemBudgetBytes = 64 << 20 },
	"Seed":            func(c *Config) { c.Seed = 99 },
	"Parallelism":     func(c *Config) { c.Parallelism = 8 },
	"Telemetry":       func(c *Config) { c.Telemetry = obs.Multi(obs.NewRegistry(), obs.NewTraceWriter(io.Discard)) },
	"DriftLog":        func(c *Config) { c.DriftLog = NewDriftLog(io.Discard) },
	"OnEpoch":         func(c *Config) { c.OnEpoch = func(EpochSnapshot) {} },
	"PipelineDepth":   func(c *Config) { c.PipelineDepth = 1 + c.PipelineDepth%8 },
	"DriftPolicy":     func(c *Config) { c.DriftPolicy = DriftEvolve },
	"EpochInterval":   func(c *Config) { c.EpochInterval = 3 },
	"Shards":          func(c *Config) { c.Shards = 4 },
}

// TestConfigFieldsClassified: every Config field declares a checkpoint
// class and has a setter in configSetters, and changing each field away
// from DefaultConfig() changes fingerprint() exactly when the field is
// fingerprinted — quarantine-only fields change it under DriftQuarantine
// and nowhere else.
func TestConfigFieldsClassified(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch classOf(f) {
		case fingerprinted, executionOnly, quarantineOnly, sectionCount:
		default:
			t.Errorf("Config.%s declares no checkpoint class (tag %q)", f.Name, f.Tag)
		}
		if configSetters[f.Name] == nil {
			t.Errorf("Config.%s has no setter in configSetters", f.Name)
		}
	}
	for name, set := range configSetters {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Errorf("configSetters names %s, which is not a Config field", name)
			continue
		}
		check := func(base Config, wantChange bool, where string) {
			t.Helper()
			c := base
			set(&c)
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
		check(base, classOf(f) == fingerprinted, "default")
		if classOf(f) == quarantineOnly {
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
