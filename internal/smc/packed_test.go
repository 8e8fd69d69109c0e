package smc

import (
	"crypto/rand"
	"math/big"
	"strings"
	"testing"

	"pprl/internal/paillier"
)

// packedSpec returns testSpec with packed results.
func packedSpec() *Spec {
	s := testSpec()
	s.Packing = PackingPacked
	return s
}

// packedRecords exercises negative values and both verdicts under
// testSpec (equality attr, threshold T=16 attr, always attr).
func packedRecords() (alice, bob [][]int64, pairs [][2]int) {
	alice = [][]int64{{1, 10, 0}, {2, -3, 5}, {3, 100, 1}, {1, -20, 9}}
	bob = [][]int64{{1, 14, 7}, {2, 1, 0}, {9, 100, 2}, {1, -17, 3}}
	for i := range alice {
		for j := range bob {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return alice, bob, pairs
}

// runComparator collects per-pair verdicts.
func runComparator(t *testing.T, cmp Comparator, pairs [][2]int) []bool {
	t.Helper()
	out := make([]bool, len(pairs))
	for k, p := range pairs {
		got, err := cmp.Compare(p[0], p[1])
		if err != nil {
			t.Fatalf("Compare(%d,%d): %v", p[0], p[1], err)
		}
		out[k] = got
	}
	return out
}

// TestPackedMatchesUnpacked pins the packed engines — serial and sharded,
// with and without the attribute shuffle — to the plaintext oracle, and
// checks the packed accounting: one decryption per packed ciphertext
// instead of one per attribute, and strictly fewer result bytes.
func TestPackedMatchesUnpacked(t *testing.T) {
	alice, bob, pairs := packedRecords()
	plain := NewPlainComparator(testSpec(), alice, bob)
	want := runComparator(t, plain, pairs)

	for _, shuffle := range []bool{false, true} {
		spec := packedSpec()
		spec.ShuffleAttributes = shuffle
		packed, err := NewLocalSecure(spec, alice, bob, testKeyBits)
		if err != nil {
			t.Fatal(err)
		}
		got := runComparator(t, packed, pairs)
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("shuffle=%v pair %v: packed %v, oracle %v", shuffle, pairs[k], got[k], want[k])
			}
		}
		if packed.Invocations() != int64(len(pairs)) {
			t.Errorf("invocations = %d, want %d", packed.Invocations(), len(pairs))
		}
		// Two active attributes fit one 106-bit-slot ciphertext at 256
		// bits: exactly one decryption per comparison.
		plan, err := spec.packPlan(256)
		if err != nil {
			t.Fatal(err)
		}
		wantDec := int64(len(pairs) * plan.Ciphertexts(len(spec.activeAttrs())))
		if packed.Decryptions() != wantDec {
			t.Errorf("decryptions = %d, want %d", packed.Decryptions(), wantDec)
		}
		packedBytes := packed.ResultBytes()
		packed.Close()

		unspec := testSpec()
		unspec.ShuffleAttributes = shuffle
		unpacked, err := NewLocalSecure(unspec, alice, bob, testKeyBits)
		if err != nil {
			t.Fatal(err)
		}
		got = runComparator(t, unpacked, pairs)
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("shuffle=%v pair %v: unpacked %v, oracle %v", shuffle, pairs[k], got[k], want[k])
			}
		}
		if unpacked.Decryptions() != int64(len(pairs)*len(unspec.activeAttrs())) {
			t.Errorf("unpacked decryptions = %d, want %d", unpacked.Decryptions(), len(pairs)*len(unspec.activeAttrs()))
		}
		if unpackedBytes := unpacked.ResultBytes(); packedBytes >= unpackedBytes {
			t.Errorf("shuffle=%v: packed result bytes %d not below unpacked %d", shuffle, packedBytes, unpackedBytes)
		}
		unpacked.Close()
	}
}

// TestPackedShardedMatchesOracle runs the packed sharded engine,
// including the batch path, against the oracle.
func TestPackedShardedMatchesOracle(t *testing.T) {
	alice, bob, pairs := packedRecords()
	plain := NewPlainComparator(testSpec(), alice, bob)
	want := runComparator(t, plain, pairs)

	spec := packedSpec()
	spec.ShuffleAttributes = true
	cmp, err := NewLocalSecureSharded(spec, alice, bob, testKeyBits, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	got, err := cmp.CompareBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("pair %v: packed sharded %v, oracle %v", pairs[k], got[k], want[k])
		}
	}
	if cmp.Invocations() != int64(len(pairs)) {
		t.Errorf("invocations = %d, want %d", cmp.Invocations(), len(pairs))
	}
	if cmp.Decryptions() >= cmp.Invocations()*int64(len(spec.activeAttrs())) {
		t.Errorf("decryptions %d not reduced below attrs×invocations %d",
			cmp.Decryptions(), cmp.Invocations()*int64(len(spec.activeAttrs())))
	}
}

// TestPackedChunksAcrossCiphertexts uses enough active attributes that
// one packed ciphertext cannot hold them all at the test key size, so
// the chunked path (⌈d/slots⌉ > 1) is exercised.
func TestPackedChunksAcrossCiphertexts(t *testing.T) {
	spec := &Spec{
		Scale:   1,
		Packing: PackingPacked,
		Attrs: []AttrSpec{
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: 16},
			{Mode: ModeEquality},
			{Mode: ModeThreshold, T: 4},
			{Mode: ModeEquality},
		},
	}
	plan, err := spec.packPlan(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ciphertexts(len(spec.activeAttrs())) < 2 {
		t.Fatalf("want a chunked plan at %d bits, got %d slots for %d attrs",
			testKeyBits, plan.Slots, len(spec.activeAttrs()))
	}
	alice := [][]int64{{1, 10, 2, 5, 3}, {4, -8, 2, 0, 3}}
	bob := [][]int64{{1, 13, 2, 4, 3}, {1, 10, 2, 5, 9}, {4, -6, 2, 2, 3}}
	unpackedSpec := *spec
	unpackedSpec.Packing = PackingOff
	plain := NewPlainComparator(&unpackedSpec, alice, bob)

	cmp, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	for i := range alice {
		for j := range bob {
			want, _ := plain.Compare(i, j)
			got, err := cmp.Compare(i, j)
			if err != nil {
				t.Fatalf("Compare(%d,%d): %v", i, j, err)
			}
			if got != want {
				t.Errorf("pair (%d,%d): packed %v, oracle %v", i, j, got, want)
			}
		}
	}
}

// TestPackedRevealDistanceIgnored: RevealDistance needs positional
// per-attribute distances, so packing must be silently inert there.
func TestPackedRevealDistanceIgnored(t *testing.T) {
	spec := packedSpec()
	spec.RevealDistance = true
	if spec.packActive() {
		t.Fatal("packing should be inert under RevealDistance")
	}
	alice, bob, pairs := packedRecords()
	plain := NewPlainComparator(testSpec(), alice, bob)
	want := runComparator(t, plain, pairs)
	cmp, err := NewLocalSecure(spec, alice, bob, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	defer cmp.Close()
	got := runComparator(t, cmp, pairs)
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("pair %v: reveal-distance %v, oracle %v", pairs[k], got[k], want[k])
		}
	}
}

// TestPackedRejectsOversizedRecords: the fail-fast magnitude check fires
// at construction, before any ciphertext is built.
func TestPackedRejectsOversizedRecords(t *testing.T) {
	spec := packedSpec()
	spec.ValueBits = 8
	bad := [][]int64{{1, 300, 0}} // 300 ≥ 2^8 on an active attribute
	ok := [][]int64{{1, 5, 0}}
	if _, err := NewLocalSecure(spec, bad, ok, testKeyBits); err == nil || !strings.Contains(err.Error(), "packing bound") {
		t.Errorf("serial alice error = %v, want packing-bound complaint", err)
	}
	if _, err := NewLocalSecure(spec, ok, bad, testKeyBits); err == nil || !strings.Contains(err.Error(), "packing bound") {
		t.Errorf("serial bob error = %v, want packing-bound complaint", err)
	}
	if _, err := NewLocalSecureSharded(spec, bad, ok, testKeyBits, 2); err == nil || !strings.Contains(err.Error(), "packing bound") {
		t.Errorf("sharded error = %v, want packing-bound complaint", err)
	}
	// ModeAlways attributes exchange no ciphertexts and are exempt.
	exempt := [][]int64{{1, 5, 1 << 40}}
	cmp, err := NewLocalSecure(spec, exempt, ok, testKeyBits)
	if err != nil {
		t.Errorf("ModeAlways value should be exempt from the bound: %v", err)
	} else {
		cmp.Close()
	}
}

// TestPackedPlanInfeasibleFailsFast: a slot width beyond the modulus is
// an immediate construction error, not a hang or a wrong verdict.
func TestPackedPlanInfeasibleFailsFast(t *testing.T) {
	spec := packedSpec()
	spec.ValueBits = 120 // w = 40 + 242 + 4 ≫ 256
	alice, bob, _ := packedRecords()
	if _, err := NewLocalSecure(spec, alice, bob, testKeyBits); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Errorf("error = %v, want infeasible-slot complaint", err)
	}
}

// TestPackedQueryRejectsWrongArity: a packed result with the unpacked
// ciphertext count (or any other wrong count) is malformed.
func TestPackedQueryRejectsWrongArity(t *testing.T) {
	spec := packedSpec() // 2 active attrs → 1 packed ciphertext expected
	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	go func() {
		aq.Recv()
		aq.Recv()
	}()
	go func() {
		bq.Recv()
		bq.Recv()
		bq.Send(&Message{Kind: MsgResult, Res: []*big.Int{big.NewInt(5), big.NewInt(6)}})
	}()
	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if !q.packed || q.plan.Ciphertexts(len(spec.activeAttrs())) != 1 {
		t.Fatalf("expected a packed session wanting 1 ciphertext, got packed=%v plan=%+v", q.packed, q.plan)
	}
	if _, err := q.Compare(0, 0); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("error = %v, want malformed-result complaint", err)
	}
}

// TestPackedShuffleMovesSlots drives Bob's packed path directly and
// decrypts the raw slots: with one matching and one failing attribute,
// the matching (negative) slot must sit at both positions across
// requests when ShuffleAttributes is on, and always at the first when it
// is off — the fused chain packs in the shuffled order.
func TestPackedShuffleMovesSlots(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		spec := packedSpec()
		spec.ShuffleAttributes = shuffled
		qa, aq := NewConnPair()
		qb, bq := NewConnPair()
		ab, ba := NewConnPair()
		errs := make(chan error, 2)
		go func() { errs <- RunAlice(aq, ab, [][]int64{{1, 10, 0}}, spec) }()
		go func() { errs <- RunBob(bq, ba, [][]int64{{1, 30, 0}}, spec) }()
		sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := spec.packPlan(testKeyBits)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []Conn{qa, qb} {
			if err := c.Send(&Message{Kind: MsgPublicKey, N: sk.N}); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[int]int{}
		for r := 0; r < 40; r++ {
			for _, c := range []Conn{qa, qb} {
				if err := c.Send(&Message{Kind: MsgCompare, Record: 0}); err != nil {
					t.Fatal(err)
				}
			}
			res, err := qb.Recv()
			if err != nil || len(res.Res) != 1 {
				t.Fatalf("result %v, %v", res, err)
			}
			vals, err := sk.UnpackSigned(&paillier.Ciphertext{C: res.Res[0]}, plan, 2)
			if err != nil {
				t.Fatal(err)
			}
			if (vals[0].Sign() < 0) == (vals[1].Sign() < 0) {
				t.Fatalf("slots %v: want exactly one negative", vals)
			}
			if vals[0].Sign() < 0 {
				seen[0]++
			} else {
				seen[1]++
			}
		}
		for _, c := range []Conn{qa, qb} {
			c.Send(&Message{Kind: MsgShutdown})
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if shuffled && (seen[0] == 0 || seen[1] == 0) {
			t.Errorf("shuffled: matching slot positions %v, want both", seen)
		}
		if !shuffled && seen[0] != 40 {
			t.Errorf("unshuffled: matching slot positions %v, want always 0", seen)
		}
	}
}
