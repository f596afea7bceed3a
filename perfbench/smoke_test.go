package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs the tiny-document self-test: every workload once, untraced
// and traced, with the metric names checked against BENCHMARK.json and the
// correctness gate fed corrupted outputs.
func TestSmoke(t *testing.T) {
	if err := runSmoke(filepath.Join("..", "BENCHMARK.json"), t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
