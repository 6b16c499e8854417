package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/serialize"
	"pghive/internal/soak"
)

// ScenarioPoint is one adversarial-scenario measurement: a named workload
// from the scenario engine driven through discovery in one execution mode.
type ScenarioPoint struct {
	Scenario string
	// Mode is "serial" or "shards2".
	Mode    string
	Shards  int
	Batches int
	Nodes   int
	Edges   int
	// Elapsed is the discovery wall clock (drain + merge, excluding
	// post-processing).
	Elapsed time.Duration
	// Throughput is elements per second over Elapsed.
	Throughput float64
	NodeTypes  int
	EdgeTypes  int
	// StreamHash is the canonical wire hash of the generated stream — the
	// reproducibility anchor for this point (same scenario + seed must
	// reproduce it anywhere).
	StreamHash string
	// Deterministic reports that a second identical run produced
	// byte-identical schema JSON.
	Deterministic bool
	// Equivalent reports that this mode's schema is equivalent to the
	// serial reference (vacuously true for the serial row itself), at the
	// strongest level the workload supports (EquivLevel).
	Equivalent bool
	// EquivLevel is the equivalence grade checked: "exact", "labeled", or
	// "coverage" (see soak.EquivalenceLevel).
	EquivLevel string
}

// RunScenarios drives every named adversarial scenario through discovery,
// serially and sharded, and measures throughput alongside the properties
// the soak harness asserts: per-mode run-to-run determinism and
// sharded-vs-serial schema equivalence. Adversarial structure (skew, drift,
// supernodes, near-θ types, correlated noise) costs throughput relative to
// the uniform profile sweeps (fig5), and this table is where that cost is
// tracked release over release.
func RunScenarios(w io.Writer, s Settings) ([]ScenarioPoint, error) {
	s = s.withDefaults()
	var points []ScenarioPoint

	fmt.Fprintln(w, "Adversarial scenarios: discovery under declarative workloads (serial vs 2 shards)")
	tw := newTable(w)
	fmt.Fprintln(tw, "  scenario\tbatches\tnodes\tedges\tserial(ms)\tshards2(ms)\ttypes(n+e)\tdeterm\tequiv(level)")
	for _, sc := range datagen.Scenarios() {
		hash, batches, nodes, edges := datagen.HashStream(sc.Stream(s.Seed))
		level := soak.ScenarioEquivalenceLevel(sc, s.Seed, 1)

		runOnce := func(shards int) (*core.Result, []byte, error) {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Telemetry = s.Telemetry
			cfg.PipelineDepth = s.engineDepth()
			cfg.Shards = shards
			res := core.Discover(sc.Stream(s.Seed), cfg)
			var buf bytes.Buffer
			if err := serialize.WriteJSON(&buf, res.Def); err != nil {
				return nil, nil, err
			}
			return res, buf.Bytes(), nil
		}

		serial, serialJSON, err := runOnce(1)
		if err != nil {
			return nil, err
		}
		var row [2]ScenarioPoint
		for i, shards := range []int{1, 2} {
			res, json, err := runOnce(shards)
			if err != nil {
				return nil, err
			}
			_, again, err := runOnce(shards)
			if err != nil {
				return nil, err
			}
			mode := "serial"
			equiv := true
			if shards > 1 {
				mode = fmt.Sprintf("shards%d", shards)
				equiv = soak.EquivalenceDiff(serial.Def, res.Def, level) == ""
			} else {
				// The serial row's determinism doubles as the reference
				// identity: res must match the reference run too.
				equiv = bytes.Equal(json, serialJSON)
			}
			elems := nodes + edges
			row[i] = ScenarioPoint{
				Scenario:      sc.Name,
				Mode:          mode,
				Shards:        shards,
				Batches:       batches,
				Nodes:         nodes,
				Edges:         edges,
				Elapsed:       res.Discovery,
				Throughput:    float64(elems) / res.Discovery.Seconds(),
				NodeTypes:     len(res.Def.Nodes),
				EdgeTypes:     len(res.Def.Edges),
				StreamHash:    hash,
				Deterministic: bytes.Equal(json, again),
				Equivalent:    equiv,
				EquivLevel:    level.String(),
			}
		}
		points = append(points, row[0], row[1])
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%.1f\t%.1f\t%d+%d\t%t\t%s\n",
			sc.Name, batches, nodes, edges,
			float64(row[0].Elapsed.Microseconds())/1e3,
			float64(row[1].Elapsed.Microseconds())/1e3,
			row[0].NodeTypes, row[0].EdgeTypes,
			row[0].Deterministic && row[1].Deterministic,
			fmt.Sprintf("%t(%s)", row[0].Equivalent && row[1].Equivalent, level))
	}
	tw.Flush()
	return points, nil
}
