package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"pprl/internal/adult"
	"pprl/internal/blocking"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/match"
)

// relations is one generated workload input: the two holders' relations
// (the paper's overlapping D1/D2 split of one Adult draw) and the exact
// match set between them.
type relations struct {
	schema *dataset.Schema
	qids   []string
	alice  *dataset.Dataset
	bob    *dataset.Dataset
	truth  map[match.Pair]bool
}

// genRelations draws n Adult records from seed and splits them exactly as
// `pprl-datagen -n N -seed S -split` does, then computes the ground truth
// at theta with the session's uniform rule.
func genRelations(n int, seed int64, theta float64) (*relations, error) {
	schema := adult.Schema()
	data := adult.GenerateInto(schema, n, seed)
	a, b := dataset.SplitOverlap(data, rand.New(rand.NewSource(seed+1)))
	qids := adult.DefaultQIDs()
	pos, err := schema.Resolve(qids)
	if err != nil {
		return nil, err
	}
	rule, err := blocking.UniformRule(distance.MetricsFor(schema, pos), theta)
	if err != nil {
		return nil, err
	}
	pairs, err := match.TruePairs(a, b, pos, rule)
	if err != nil {
		return nil, err
	}
	truth := make(map[match.Pair]bool, len(pairs))
	for _, p := range pairs {
		truth[p] = true
	}
	if len(truth) == 0 {
		return nil, fmt.Errorf("seed %d: the split has no true matches", seed)
	}
	return &relations{schema: schema, qids: qids, alice: a, bob: b, truth: truth}, nil
}

// writeCSV writes d to path the way pprl-datagen does, and syncs it so
// the write-back does not land inside timed operations.
func writeCSV(d *dataset.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readCSV is the holders' read, the call pprl-party makes on -data.
func readCSV(schema *dataset.Schema, path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(schema, f)
}

// batchFile is one live-ingest append: a CSV slice of one side.
type batchFile struct {
	side string // "alice" or "bob"
	name string // path relative to the service's data directory
	n    int
}

// writeBatches cuts both relations into batches of size records and
// writes them to dir, alternating sides (alice 0, bob 0, alice 1, …)
// until both are exhausted. Appending them in order rebuilds exactly the
// relations r holds, so r.truth is the final relations' match set.
func writeBatches(r *relations, dir string, size int) ([]batchFile, error) {
	var out []batchFile
	sides := []struct {
		name string
		d    *dataset.Dataset
	}{{"alice", r.alice}, {"bob", r.bob}}
	for lo := 0; lo < max(r.alice.Len(), r.bob.Len()); lo += size {
		for _, s := range sides {
			if lo >= s.d.Len() {
				continue
			}
			hi := min(lo+size, s.d.Len())
			name := fmt.Sprintf("%s-%06d.csv", s.name, lo)
			if err := writeCSV(s.d.Slice(lo, hi), filepath.Join(dir, name)); err != nil {
				return nil, err
			}
			out = append(out, batchFile{side: s.name, name: name, n: hi - lo})
		}
	}
	return out, nil
}
