package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"nimbus/internal/exp"
	"nimbus/internal/runner"
)

// The expected results are every cell's deterministic output for the
// default seed (1) and one held-out seed (17), written by
// --write-expected. A cell whose output differs from its expected entry
// counts as failed; at other seeds only error rows and non-finite metrics
// do.
//
//go:embed expected/*.json
var expectedFiles embed.FS

// expectedSeeds are the seeds with checked-in expected results.
var expectedSeeds = []int64{1, 17}

// cellOutput is the deterministic part of a cell's result: everything
// but the host wall-clock time.
type cellOutput struct {
	Key     string             `json:"key"`
	Events  uint64             `json:"events"`
	Metrics map[string]float64 `json:"metrics"`
	Err     string             `json:"err,omitempty"`
}

func outputOf(r runner.Result) cellOutput {
	return cellOutput{Key: r.Scenario.Key(), Events: r.Events, Metrics: r.Metrics, Err: r.Err}
}

// sameOutput reports whether two cells agree exactly.
func sameOutput(a, b cellOutput) bool {
	if a.Key != b.Key || a.Events != b.Events || a.Err != b.Err || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for k, v := range a.Metrics {
		if w, ok := b.Metrics[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// sane reports whether a cell ran without error and with finite metrics.
func sane(r runner.Result) bool {
	if r.Err != "" {
		return false
	}
	for _, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func expectedName(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.json", workload, seed)
}

// loadExpected returns the expected outputs for a workload and seed, or
// nil when none are checked in.
func loadExpected(workload string, seed int64) ([]cellOutput, error) {
	b, err := expectedFiles.ReadFile("expected/" + expectedName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var want []cellOutput
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("expected results %s: %w", expectedName(workload, seed), err)
	}
	return want, nil
}

// checker counts the failed cells of a batch workload's rounds: a cell
// fails if it differs from its expected output (when there is one), is
// not sane, or differs from the same cell in the run's first round —
// which also compares every traced round against an untraced one.
type checker struct {
	want  []cellOutput
	first []cellOutput
}

func (c *checker) failures(rs []runner.Result) int {
	if c.want != nil && len(c.want) != len(rs) {
		return len(rs) // the grid no longer matches its expected results
	}
	failed := 0
	outs := make([]cellOutput, len(rs))
	for i, r := range rs {
		outs[i] = outputOf(r)
		if !sane(r) ||
			(c.want != nil && !sameOutput(outs[i], c.want[i])) ||
			(c.first != nil && !sameOutput(outs[i], c.first[i])) {
			failed++
		}
	}
	if c.first == nil {
		c.first = outs
	}
	return failed
}

// writeExpectedFile runs a batch workload's grid once at seed and writes
// its cell outputs to dir.
func writeExpectedFile(dir, workload string, seed int64) error {
	def, ok := batchWorkloads[workload]
	if !ok {
		return fmt.Errorf("no expected results for workload %q", workload)
	}
	rs := (&runner.Runner{Workers: workers}).Run(def.Grid(seed).Expand(), exp.RunScenario)
	outs := make([]cellOutput, len(rs))
	for i, r := range rs {
		if !sane(r) {
			return fmt.Errorf("cell %s failed: %s", r.Scenario.Name, r.Err)
		}
		outs[i] = outputOf(r)
	}
	b, err := json.MarshalIndent(outs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, expectedName(workload, seed)), append(b, '\n'), 0o644)
}
