package main

import (
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pprl/internal/incremental"
	"pprl/internal/journal"
	"pprl/internal/match"
	"pprl/internal/smc"
)

// sentBytes sums the bytes of one party's send spans.
func sentBytes(spans []Span, party string) int64 {
	var n int64
	for _, s := range spans {
		if s.Party == party && strings.HasPrefix(s.Name, "send.") {
			n += s.Bytes
		}
	}
	return n
}

func TestConnRecorderBytesMatchWrappedConn(t *testing.T) {
	rec := newRecorder()
	a, b := smc.NewConnPair()
	ra := &connRecorder{Conn: a, rec: rec, party: "a", peer: "b"}
	rb := &connRecorder{Conn: b, rec: rec, party: "b", peer: "a"}
	msgs := []*smc.Message{
		{Kind: smc.MsgHello, Role: "alice"},
		{Kind: smc.MsgCompare, Record: 7},
		{Kind: smc.MsgShares, Sq: []*big.Int{big.NewInt(1 << 40)}, Lin: []*big.Int{big.NewInt(3)}},
		{Kind: smc.MsgResult, Res: []*big.Int{big.NewInt(99), big.NewInt(100)}},
		{Kind: smc.MsgView, View: make([]byte, 5000)},
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, pair := range [][2]*connRecorder{{ra, rb}, {rb, ra}} {
		from, to := pair[0], pair[1]
		go func() {
			defer wg.Done()
			for _, m := range msgs {
				if err := from.Send(m); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			for range msgs {
				if _, err := to.Recv(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	spans := rec.Spans()
	if got, want := sentBytes(spans, "a"), a.Bytes(); got != want || want == 0 {
		t.Errorf("end a: recorder counted %d bytes, Conn.Bytes() = %d", got, want)
	}
	if got, want := sentBytes(spans, "b"), b.Bytes(); got != want || want == 0 {
		t.Errorf("end b: recorder counted %d bytes, Conn.Bytes() = %d", got, want)
	}
	var cts int64
	for _, s := range spans {
		if s.Party == "a" && strings.HasPrefix(s.Name, "send.") {
			cts += s.Count
		}
	}
	if cts != 4 {
		t.Errorf("counted %d ciphertexts in a's sends, want 4", cts)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
		wantOK    bool
	}{
		{n: 5, wantValue: 5, wantPct: 100, wantOK: false},
		{n: 10, wantValue: 10, wantPct: 100, wantOK: false},
		{n: 11, wantValue: 1, wantPct: 100.0 / 11, wantOK: true},
		{n: 100, wantValue: 90, wantPct: 90, wantOK: true},
		{n: 1000, wantValue: 990, wantPct: 99, wantOK: true},
	} {
		// Samples 1..n in scrambled order.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64((i*7)%tc.n + 1)
		}
		v, pct, ok := tail(xs)
		if v != tc.wantValue || ok != tc.wantOK || abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail = (%v, p%v, %v), want (%v, p%v, %v)", tc.n, v, pct, ok, tc.wantValue, tc.wantPct, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value, want exactly %d (any higher rank leaves fewer than %d)", tc.n, beyond, tailBeyond, tailBeyond)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLinkGateTripsOnEveryDefect(t *testing.T) {
	truth := map[match.Pair]bool{{I: 0, J: 0}: true, {I: 1, J: 2}: true, {I: 3, J: 3}: true}
	good := []match.Pair{{I: 0, J: 0}, {I: 1, J: 2}}
	if found, err := checkLink(good, truth, 10, 10, 50); err != nil || found != 2 {
		t.Fatalf("valid session: found=%d err=%v", found, err)
	}
	for name, tc := range map[string]struct {
		matches                     []match.Pair
		invocations, allow, unknown int64
	}{
		"wrong pair":     {append(append([]match.Pair(nil), good...), match.Pair{I: 2, J: 9}), 10, 10, 50},
		"duplicate pair": {append(append([]match.Pair(nil), good...), good[0]), 10, 10, 50},
		"overspent":      {good, 11, 10, 50},
		"underspent":     {good, 9, 10, 50},
	} {
		if _, err := checkLink(tc.matches, truth, tc.invocations, tc.allow, tc.unknown); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
	// Spending less than the allowance is correct when blocking left
	// fewer unknown pairs than it allows.
	if _, err := checkLink(good, truth, 5, 10, 5); err != nil {
		t.Errorf("unknown pairs below the allowance: %v", err)
	}
}

func TestIngestGateTripsOnEveryDefect(t *testing.T) {
	truth := map[match.Pair]bool{{I: 0, J: 0}: true, {I: 1, J: 2}: true}
	good := []incremental.Delta{{Batch: 1, I: 0, J: 0}, {Batch: 3, I: 1, J: 2}}
	if err := checkIngest(good, truth, 4, 4); err != nil {
		t.Fatalf("valid pass: %v", err)
	}
	for name, tc := range map[string]struct {
		deltas            []incremental.Delta
		applied, appended int
	}{
		"wrong pair":      {append(append([]incremental.Delta(nil), good...), incremental.Delta{Batch: 3, I: 5, J: 5}), 4, 4},
		"pair twice":      {append(append([]incremental.Delta(nil), good...), good[1]), 4, 4},
		"missing pair":    {good[:1], 4, 4},
		"unapplied batch": {good, 3, 4},
	} {
		if err := checkIngest(tc.deltas, truth, tc.applied, tc.appended); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

func TestJournalRecorderCountsFsyncs(t *testing.T) {
	w, err := journal.Create(filepath.Join(t.TempDir(), "j.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	jr := &journalRecorder{inner: w}
	if _, err := jr.Begin(journal.Manifest{Heuristic: "x"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 130; i++ {
		if err := jr.Record(i, i, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}
	st := jr.snapshot()
	// Begin, the 64th and 128th verdicts, and the final Sync.
	if st.Records != 130 || st.Syncs != 4 {
		t.Errorf("records=%d syncs=%d, want 130 and 4", st.Records, st.Syncs)
	}
}

// TestSmallSessionsPassGatesAndAccountBytes runs traced and untraced
// sessions over both transports at a small scale: every gate passes, and
// the recorder's bytes over the six conn ends equal the transports' own
// Conn.Bytes() totals.
func TestSmallSessionsPassGatesAndAccountBytes(t *testing.T) {
	p := linkParams{Records: 300, K: 8, Theta: 0.05, KeyBits: 256, Allowance: 20}
	rel, err := genRelations(p.Records, 1, p.Theta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newLinkBench(p, rel, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for op, tcp := range []bool{true, false} {
		rec := newRecorder()
		o, err := b.run(rec, op, tcp)
		if err != nil {
			t.Fatalf("tcp=%v: %v", tcp, err)
		}
		var sent int64
		for _, s := range rec.Spans() {
			if strings.HasPrefix(s.Name, "send.") {
				sent += s.Bytes
			}
		}
		if sent != o.wire || sent == 0 {
			t.Errorf("tcp=%v: spans count %d bytes, conns %d", tcp, sent, o.wire)
		}
		if o.res.Invocations == 0 {
			t.Errorf("tcp=%v: no comparisons purchased", tcp)
		}
		if _, _, err := b.replayQuery(rec, op, o.res); err != nil {
			t.Fatal(err)
		}
		a := sessionSMC(rec.Spans())
		if a.phase <= 0 || a.aliceBusy <= 0 || a.bobBusy <= 0 || a.queryWait <= 0 {
			t.Errorf("tcp=%v: SMC times not all positive: %+v", tcp, a)
		}
	}
	if _, err := b.run(nil, 2, true); err != nil {
		t.Fatalf("untraced: %v", err)
	}
}

// TestFailedPartyEndsSession checks that a party failing early ends the
// whole session with an error instead of leaving the others blocked.
func TestFailedPartyEndsSession(t *testing.T) {
	p := linkParams{Records: 300, K: 8, Theta: 0.05, KeyBits: 256, Allowance: 20}
	rel, err := genRelations(p.Records, 1, p.Theta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newLinkBench(p, rel, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.aPath += ".missing"
	for op, tcp := range []bool{true, false} {
		if _, err := b.setup(); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := b.run(nil, op, tcp); err == nil {
			t.Errorf("tcp=%v: a session whose holder cannot read its data succeeded", tcp)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("tcp=%v: the failed session took %v to end", tcp, d)
		}
	}
}

func TestSmallIngestPassPassesGate(t *testing.T) {
	rel, err := genRelations(900, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newIngestBench(ingestParams{Records: 900, Theta: 0.05, Batch: 100}, rel, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ls, _, err := b.start(true)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.stop()
	rec := newRecorder()
	ps, err := b.pass(ls, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.lat) != len(b.batches) || ps.status.Applied != len(b.batches) {
		t.Errorf("%d latencies, %d applied, %d batches", len(ps.lat), ps.status.Applied, len(b.batches))
	}
	if ps.jst.Commits != int64(len(b.batches)) {
		t.Errorf("journal saw %d commits for %d batches", ps.jst.Commits, len(b.batches))
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the runs print
// and the ones BENCHMARK.json declares identical.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
