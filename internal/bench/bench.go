// Package bench regenerates the paper's evaluation (§5): every table and
// figure has a runner that builds the scaled datasets, executes the four
// methods (PG-HIVE-ELSH, PG-HIVE-MinHash, GMMSchema, SchemI), scores them
// with the majority-based F1*, and prints the same rows/series the paper
// reports. Absolute numbers differ from the paper (different hardware and
// substrate); the expected *shapes* are noted next to each experiment.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"pghive/internal/baselines/gmm"
	"pghive/internal/baselines/schemi"
	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/eval"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// MethodID identifies one evaluated method.
type MethodID int

// Evaluated methods, in the paper's order.
const (
	ELSH MethodID = iota
	MinHash
	GMM
	SchemI
	numMethods
)

// MethodNames spells the methods the way the paper does.
var MethodNames = [numMethods]string{"PG-HIVE-ELSH", "PG-HIVE-MinHash", "GMMSchema", "SchemI"}

// String returns the method's display name.
func (m MethodID) String() string { return MethodNames[m] }

// NoiseLevels is the paper's property-removal sweep.
var NoiseLevels = []float64{0, 0.1, 0.2, 0.3, 0.4}

// LabelAvailabilities is the paper's label scenarios.
var LabelAvailabilities = []float64{1.0, 0.5, 0.0}

// Settings configure a harness run.
type Settings struct {
	// Scale is the number of nodes generated per dataset (default 2000;
	// the paper's originals are listed in Table 2 and reproduced
	// structurally, not at raw size).
	Scale int
	// Seed drives dataset generation, noise and the methods.
	Seed int64
	// Datasets filters by profile name; empty means all eight. Experiment.Run
	// and RunAll reject a name datagen.ProfileByName does not know.
	Datasets []string
}

func (s Settings) withDefaults() Settings {
	if s.Scale <= 0 {
		s.Scale = 2000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// checkDatasets rejects a Datasets name that is not a profile, so a typo
// fails the run instead of silently selecting nothing.
func (s Settings) checkDatasets() error {
	for _, name := range s.Datasets {
		if datagen.ProfileByName(name) == nil {
			var names []string
			for _, p := range datagen.Profiles() {
				names = append(names, p.Name)
			}
			return fmt.Errorf("bench: unknown dataset %q (have: %s)", name, strings.Join(names, ", "))
		}
	}
	return nil
}

// profiles returns the selected dataset profiles.
func (s Settings) profiles() []*datagen.Profile {
	all := datagen.Profiles()
	if len(s.Datasets) == 0 {
		return all
	}
	var out []*datagen.Profile
	for _, name := range s.Datasets {
		if p := datagen.ProfileByName(name); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Outcome is one method's result on one test case.
type Outcome struct {
	// OK reports whether the method could run at all (the baselines
	// require full labels).
	OK bool
	// Node and Edge are the F1* scores; HasEdges marks methods that emit
	// edge types (GMMSchema does not).
	Node     eval.Scores
	Edge     eval.Scores
	HasEdges bool
	// NodeARI and NodeNMI are the supplementary clustering metrics over
	// node types.
	NodeARI float64
	NodeNMI float64
	// Elapsed is the discovery wall-clock time (load to type extraction,
	// excluding post-processing, matching Figure 5's measurement).
	Elapsed time.Duration
	// Schema is the raw schema for PG-HIVE methods (nil for baselines).
	Schema *schema.Schema
	// Reports carries the per-batch reports for PG-HIVE methods.
	Reports []core.BatchReport
}

// RunMethod executes one method on a dataset and scores it.
func RunMethod(ds *datagen.Dataset, m MethodID, s Settings) Outcome {
	switch m {
	case ELSH, MinHash:
		cfg := core.DefaultConfig()
		cfg.TrackMembers = true
		cfg.Seed = s.Seed
		// Serial, so per-batch and per-phase timings stay attributable to
		// one batch.
		cfg.PipelineDepth = 1
		if m == MinHash {
			cfg.Method = core.MethodMinHash
		}
		return RunPGHive(ds, cfg)
	case GMM:
		return runGMM(ds, s.Seed)
	case SchemI:
		return runSchemI(ds)
	default:
		panic("bench: unknown method")
	}
}

// RunPGHive runs the PG-HIVE pipeline with an explicit configuration.
func RunPGHive(ds *datagen.Dataset, cfg core.Config) Outcome {
	cfg.TrackMembers = true
	res := core.Discover(pg.NewSliceSource(ds.Graph.Snapshot()), cfg)
	nodeClusters := typeMembers(res.Schema.NodeTypes)
	return Outcome{
		OK:       true,
		Node:     eval.F1Star(nodeClusters, ds.NodeTruth),
		Edge:     eval.F1Star(typeMembers(res.Schema.EdgeTypes), ds.EdgeTruth),
		HasEdges: true,
		NodeARI:  eval.AdjustedRandIndex(nodeClusters, ds.NodeTruth),
		NodeNMI:  eval.NormalizedMutualInfo(nodeClusters, ds.NodeTruth),
		Elapsed:  res.Discovery,
		Schema:   res.Schema,
		Reports:  res.Reports,
	}
}

func runGMM(ds *datagen.Dataset, seed int64) Outcome {
	cfg := gmm.DefaultConfig()
	cfg.Seed = seed
	start := time.Now()
	batch := ds.Graph.Snapshot()
	res, err := gmm.DiscoverNodeTypes(batch, cfg)
	if err != nil {
		return Outcome{OK: false}
	}
	clusters := typeMembers(res.Types)
	return Outcome{
		OK:      true,
		Node:    eval.F1Star(clusters, ds.NodeTruth),
		NodeARI: eval.AdjustedRandIndex(clusters, ds.NodeTruth),
		NodeNMI: eval.NormalizedMutualInfo(clusters, ds.NodeTruth),
		Elapsed: time.Since(start),
	}
}

func runSchemI(ds *datagen.Dataset) Outcome {
	start := time.Now()
	batch := ds.Graph.Snapshot()
	res, err := schemi.Discover(batch, schemi.DefaultConfig())
	if err != nil {
		return Outcome{OK: false}
	}
	nodeClusters := typeMembers(res.NodeTypes)
	return Outcome{
		OK:       true,
		Node:     eval.F1Star(nodeClusters, ds.NodeTruth),
		Edge:     eval.F1Star(typeMembers(res.EdgeTypes), ds.EdgeTruth),
		HasEdges: true,
		NodeARI:  eval.AdjustedRandIndex(nodeClusters, ds.NodeTruth),
		NodeNMI:  eval.NormalizedMutualInfo(nodeClusters, ds.NodeTruth),
		Elapsed:  time.Since(start),
	}
}

func typeMembers(types []*schema.Type) [][]pg.ID {
	out := make([][]pg.ID, len(types))
	for i, t := range types {
		out[i] = t.Members
	}
	return out
}

// datasetCache builds each (profile, scale) dataset once per harness run.
type datasetCache struct {
	scale int
	seed  int64
	data  map[string]*datagen.Dataset
}

func newDatasetCache(s Settings) *datasetCache {
	return &datasetCache{scale: s.Scale, seed: s.Seed, data: map[string]*datagen.Dataset{}}
}

func (c *datasetCache) get(p *datagen.Profile) *datagen.Dataset {
	ds, ok := c.data[p.Name]
	if !ok {
		ds = datagen.Generate(p, datagen.Options{Nodes: c.scale, Seed: c.seed})
		c.data[p.Name] = ds
	}
	return ds
}

// noisy applies one noise case (deterministic per case).
func (c *datasetCache) noisy(p *datagen.Profile, propRemoval, labelAvail float64) *datagen.Dataset {
	ds := c.get(p)
	if propRemoval == 0 && labelAvail >= 1 {
		return ds
	}
	return datagen.NewNoise(propRemoval, labelAvail,
		c.seed+int64(propRemoval*1000)+int64(labelAvail*10)).Apply(ds)
}

// newTable starts an aligned text table.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
