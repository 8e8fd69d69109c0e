package anonymize

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"pprl/internal/adult"
	"pprl/internal/dataset"
	"pprl/internal/vgh"
)

// TestChildGroupsKeysMatchPerMemberFormatting pins childGroups' interval
// grouping to the per-member formatting it replaced: every split, at
// every level down to exact points, must have the same sorted keys and
// the same members in each group as grouping by each member's formatted
// child value.
func TestChildGroupsKeysMatchPerMemberFormatting(t *testing.T) {
	d, qids := adultSample(t, 600)
	eng := NewMaxEntropy().(*topDown)
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
	}
	queue := []*partition{{seq: rootSequence(d.Schema(), qids), members: all}}
	splits, points := 0, 0
	for len(queue) > 0 && splits < 400 {
		p := queue[len(queue)-1] // depth first, to reach exact points early
		queue = queue[:len(queue)-1]
		for j := range qids {
			s := eng.childGroups(d, qids, p, j)
			if s == nil {
				continue
			}
			splits++
			if s.groups[s.keys[0]].seq[j].Iv.IsPoint() && !s.groups[s.keys[0]].seq[j].IsCategorical() {
				points++
			}
			want := make(map[string][]int)
			for _, m := range p.members {
				key := childKey(d, qids, p, j, m)
				want[key] = append(want[key], m)
			}
			wantKeys := make([]string, 0, len(want))
			for k := range want {
				wantKeys = append(wantKeys, k)
			}
			slices.Sort(wantKeys)
			if !slices.Equal(s.keys, wantKeys) {
				t.Fatalf("attr %d: keys %q, want %q", j, s.keys, wantKeys)
			}
			for _, k := range s.keys {
				if g := s.groups[k]; !slices.Equal(g.members, want[k]) || g.seq[j].String() != k {
					t.Fatalf("attr %d key %q: members %v (value %q), want %v", j, k, g.members, g.seq[j], want[k])
				}
				queue = append(queue, s.groups[k])
			}
		}
	}
	if splits < 100 || points == 0 {
		t.Fatalf("only %d splits (%d down to exact points) exercised", splits, points)
	}
}

// childKey formats member m's child value on QID j one member at a time,
// the way childGroups keyed its groups before grouping by interval.
func childKey(d *dataset.Dataset, qids []int, p *partition, j, m int) string {
	attr := d.Schema().Attr(qids[j])
	cell := d.Record(m).Cells[qids[j]]
	if attr.Kind == dataset.Categorical {
		return attr.Hierarchy.GeneralizeToDepth(cell.Node, p.seq[j].Node.Depth()+1).Value
	}
	ih := attr.Intervals
	if level := ih.LevelOf(p.seq[j].Iv); level < ih.Depth() {
		return ih.At(cell.Num, level+1).String()
	}
	return vgh.Point(cell.Num).String()
}

// TestViewDigestsUnchanged pins the serialized views of the three
// generalizing anonymizers on larger inputs than the golden files, at
// digests taken with per-member key formatting: the grouping change must
// leave every view byte-identical. (DataFly at k=32 is left out: its
// suppressed records are collected in map order, so that view is not
// reproducible from run to run.)
func TestViewDigestsUnchanged(t *testing.T) {
	for _, c := range []struct {
		n, q, k int
		name    string
		digest  string
	}{
		{3000, 8, 4, "Entropy", "f99f83aa223422caf40aedb411bf6cb87ac8a1817e9c8de4aeb7c97e50874178"},
		{3000, 8, 4, "TDS", "c29bf1d253fb65ac12b599bd18dea48df897ea58425f2ae987509625acaf2e1b"},
		{3000, 8, 4, "DataFly", "5cd54bb32a7f188a86ec90c285ae2ba3d0c985cd1c1802b62cdb173750d0ea3b"},
		{3000, 8, 32, "Entropy", "6fb2a91f2bb2d830213ffd2d5afacc3d218639e3360e127061637fa57a5c1b46"},
		{3000, 8, 32, "TDS", "c4e0fe187baa15befd12ef8c6716a53f87e5c7748b35c0eca5d3d3a8110e05d6"},
		{1500, 5, 2, "Entropy", "12cf3007d9ed94ecc98d282e24f6422ef2e1c6c66e2a4c108de61a1afec5c954"},
		{1500, 5, 2, "TDS", "944336db0ff5361dc5e634f2c5a5b43781d13cf784811b32909d9f844aa50ee7"},
		{1500, 5, 2, "DataFly", "fb4b2e81e02183e4fd525519cee9208371b67a08cd81b3263b535468aebf5cff"},
	} {
		d := adult.Generate(c.n, 11)
		qids, err := d.Schema().Resolve(adult.TopQIDs(c.q))
		if err != nil {
			t.Fatal(err)
		}
		a := map[string]Anonymizer{"Entropy": NewMaxEntropy(), "TDS": NewTDS(), "DataFly": NewDataFly()}[c.name]
		res, err := a.Anonymize(d, qids, c.k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteView(&buf, d.Schema(), res); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.digest {
			t.Errorf("n=%d q=%d k=%d %s: view digest %s, want %s", c.n, c.q, c.k, c.name, got, c.digest)
		}
	}
}
