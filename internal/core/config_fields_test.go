package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"pghive/internal/datagen"
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
	"LabelWeight":     func(c *Config) { c.LabelWeight = 3 },
	"SemanticLabels":  func(c *Config) { c.SemanticLabels = true },
	"AlignLabels":     func(c *Config) { c.AlignLabels = true },
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
// from DefaultConfig() changes the fingerprint of the defaulted
// configuration exactly when the field is fingerprinted — quarantine-only
// fields change it under DriftQuarantine and nowhere else. A func field
// must be execution-only: a func value has no rendering that two processes
// share, so fingerprint() cannot record it.
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
		if f.Type.Kind() == reflect.Func && classOf(f) != executionOnly {
			t.Errorf("Config.%s is a func classed %q: only an execution-only func can be left out of the fingerprint", f.Name, classOf(f))
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
			if changed := c.withDefaults().fingerprint() != base.withDefaults().fingerprint(); changed != wantChange {
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

// TestZeroConfigIsDefault: a zero field means its default, so the zero
// Config runs what DefaultConfig() runs but for the seed. Configurations
// that differ only by a zero field and its default fingerprint alike after
// withDefaults, and Config{Seed: 1} gives DefaultConfig()'s JSON, DDL and
// untimed reports over the engine graph and the noise-ramp scenario, at
// depth 1 and 4 and at two shards. noise-ramp's label noise grows its
// vocabulary to 32 label-set tokens, so it checks that the label model
// keeps its one dimension however many tokens a run has seen.
func TestZeroConfigIsDefault(t *testing.T) {
	for _, pair := range []struct {
		name string
		a, b Config
	}{
		{"Config{Seed: 1} vs DefaultConfig()", Config{Seed: 1}, DefaultConfig()},
		{"Config{LabelWeight: 2} vs Config{}", Config{LabelWeight: 2}, Config{}},
	} {
		if a, b := pair.a.withDefaults().fingerprint(), pair.b.withDefaults().fingerprint(); a != b {
			t.Errorf("%s: fingerprints differ:\n  %s\n  %s", pair.name, a, b)
		}
	}

	var noiseRamp []*pg.Batch
	src := datagen.ScenarioByName("noise-ramp").Stream(1)
	for b := src.Next(); b != nil; b = src.Next() {
		noiseRamp = append(noiseRamp, b)
	}
	for _, in := range []struct {
		name    string
		batches []*pg.Batch
	}{
		{"engine", faultFreeBatches(t, 300, 6)},
		{"noise-ramp", noiseRamp},
	} {
		for _, shape := range []struct{ depth, shards int }{{1, 0}, {4, 0}, {4, 2}} {
			t.Run(fmt.Sprintf("%s/depth=%d/shards=%d", in.name, shape.depth, shape.shards), func(t *testing.T) {
				run := func(cfg Config) (jsonBytes, ddl []byte, reports []BatchReport) {
					cfg.PipelineDepth, cfg.Shards = shape.depth, shape.shards
					res, err := Run(pg.AsErrSource(pg.NewSliceSource(in.batches...)), cfg, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					jsonBytes, ddl = renderDef(t, res.Def)
					return jsonBytes, ddl, untimed(res.Reports)
				}
				zeroJSON, zeroDDL, zeroReports := run(Config{Seed: 1})
				defJSON, defDDL, defReports := run(DefaultConfig())
				if !bytes.Equal(zeroJSON, defJSON) || !bytes.Equal(zeroDDL, defDDL) {
					t.Errorf("schemas differ: Config{Seed: 1} gives %d JSON bytes, DefaultConfig() %d", len(zeroJSON), len(defJSON))
				}
				if !reflect.DeepEqual(zeroReports, defReports) {
					t.Errorf("reports differ:\n  Config{Seed: 1}: %+v\n  DefaultConfig(): %+v", zeroReports, defReports)
				}
			})
		}
	}
}
