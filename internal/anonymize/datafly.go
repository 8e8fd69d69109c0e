package anonymize

import (
	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// NewDataFly builds Sweeney's DataFly anonymizer: bottom-up full-domain
// generalization that repeatedly generalizes the attribute with the most
// distinct values until the anonymity requirement holds or can be met by
// suppressing at most k records (paper Section VI-A).
func NewDataFly() Anonymizer { return &dataFly{} }

type dataFly struct{}

func (f *dataFly) Name() string { return "DataFly" }

func (f *dataFly) Anonymize(d *dataset.Dataset, qids []int, k int) (*Result, error) {
	if err := validateInputs(d, qids, k); err != nil {
		return nil, err
	}
	schema := d.Schema()
	// Per-QID full-domain generalization level, most specific first:
	// categorical = hierarchy height (leaves), continuous = depth+1
	// (exact points).
	levels := make([]int, len(qids))
	maxLevel := make([]int, len(qids))
	for j, q := range qids {
		attr := schema.Attr(q)
		if attr.Kind == dataset.Categorical {
			maxLevel[j] = attr.Hierarchy.Height()
		} else {
			maxLevel[j] = attr.Intervals.Depth() + 1
		}
		levels[j] = maxLevel[j]
	}

	seqs := make([]vgh.Sequence, d.Len())
	var classes map[string][]int
	recompute := func() {
		classes = make(map[string][]int)
		for i := 0; i < d.Len(); i++ {
			seqs[i] = f.generalize(d, qids, i, levels)
			key := seqs[i].Key()
			classes[key] = append(classes[key], i)
		}
	}
	recompute()

	for {
		below := 0
		for _, members := range classes {
			if len(members) < k {
				below += len(members)
			}
		}
		if below <= k {
			break
		}
		// Generalize the attribute with the most distinct values one step.
		bestAttr, bestDistinct := -1, -1
		for j := range qids {
			if levels[j] == 0 {
				continue
			}
			// Count distinct formatted values, formatting each distinct
			// Value once: equal Values format equally.
			seen := make(map[vgh.Value]struct{})
			distinct := make(map[string]struct{})
			for i := range seqs {
				if _, ok := seen[seqs[i][j]]; !ok {
					seen[seqs[i][j]] = struct{}{}
					distinct[seqs[i][j].String()] = struct{}{}
				}
			}
			if n := len(distinct); n > bestDistinct {
				bestDistinct, bestAttr = n, j
			}
		}
		if bestAttr == -1 {
			break // everything at the root already
		}
		levels[bestAttr]--
		recompute()
	}

	// Suppress the ≤ k records still in small classes into the fully
	// general sequence.
	var suppressed []int
	root := rootSequence(schema, qids)
	for _, members := range classes {
		if len(members) < k {
			for _, m := range members {
				seqs[m] = root
				suppressed = append(suppressed, m)
			}
		}
	}
	return buildResult(f.Name(), k, qids, seqs, suppressed), nil
}

// generalize renders record i's sequence at the given full-domain levels.
func (f *dataFly) generalize(d *dataset.Dataset, qids []int, i int, levels []int) vgh.Sequence {
	schema := d.Schema()
	seq := make(vgh.Sequence, len(qids))
	for j, q := range qids {
		attr := schema.Attr(q)
		cell := d.Record(i).Cells[q]
		if attr.Kind == dataset.Categorical {
			seq[j] = vgh.CatValue(attr.Hierarchy.GeneralizeToDepth(cell.Node, levels[j]))
			continue
		}
		ih := attr.Intervals
		if levels[j] > ih.Depth() {
			seq[j] = vgh.NumValue(vgh.Point(cell.Num))
		} else {
			seq[j] = vgh.NumValue(ih.At(cell.Num, levels[j]))
		}
	}
	return seq
}
