package smc

import (
	"crypto/rand"
	"math/big"
	"strings"
	"testing"
	"time"

	"pprl/internal/paillier"
)

// failure-injection tests: every party loop must reject malformed or
// out-of-protocol messages with a descriptive error instead of hanging or
// panicking.

func startAlice(t *testing.T, records [][]int64, spec *Spec) (query, bob Conn, errs chan error) {
	t.Helper()
	qa, aq := NewConnPair()
	ab, ba := NewConnPair()
	errs = make(chan error, 1)
	go func() { errs <- RunAlice(aq, ab, records, spec) }()
	return qa, ba, errs
}

func startBob(t *testing.T, records [][]int64, spec *Spec) (query, alice Conn, errs chan error) {
	t.Helper()
	qb, bq := NewConnPair()
	ab, ba := NewConnPair()
	errs = make(chan error, 1)
	go func() { errs <- RunBob(bq, ba, records, spec) }()
	return qb, ab, errs
}

func sendKey(t *testing.T, c Conn) *paillier.PrivateKey {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Message{Kind: MsgPublicKey, N: sk.N}); err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestAliceRejectsGarbageBeforeKey(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	if err := qa.Send(&Message{Kind: MsgCompare, Record: 0}); err != nil {
		t.Fatal(err)
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "public key") {
		t.Errorf("alice error = %v, want public-key complaint", err)
	}
}

func TestAliceRejectsOutOfRangeRecord(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qa)
	if err := qa.Send(&Message{Kind: MsgCompare, Record: 7}); err != nil {
		t.Fatal(err)
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("alice error = %v, want out-of-range complaint", err)
	}
}

func TestAliceRejectsUnexpectedKind(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qa)
	if err := qa.Send(&Message{Kind: MsgResult}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil {
		t.Error("alice should reject a MsgResult from the querying party")
	}
}

func TestBobRejectsMalformedShares(t *testing.T) {
	spec := testSpec()
	qb, alice, errs := startBob(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qb)
	if err := qb.Send(&Message{Kind: MsgCompare, Record: 0}); err != nil {
		t.Fatal(err)
	}
	// Wrong arity: the spec has two active attributes.
	if err := alice.Send(&Message{Kind: MsgShares, Sq: []*big.Int{big.NewInt(1)}, Lin: []*big.Int{big.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("bob error = %v, want malformed-shares complaint", err)
	}
}

func TestBobRejectsOutOfRangeRecord(t *testing.T) {
	spec := testSpec()
	qb, _, errs := startBob(t, [][]int64{{1, 2, 3}}, spec)
	sendKey(t, qb)
	if err := qb.Send(&Message{Kind: MsgCompare, Record: -1}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil {
		t.Error("bob should reject a negative record index")
	}
}

func TestPartyStopsOnClosedConn(t *testing.T) {
	spec := testSpec()
	qa, _, errs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
	qa.Close()
	if err := <-errs; err == nil {
		t.Error("alice should surface a transport error when the query link closes")
	}
}

func TestQueryRejectsBadResult(t *testing.T) {
	// A malicious Bob answering with garbage ciphertexts must not crash
	// the querying party.
	spec := testSpec()
	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	go func() {
		// Fake Alice: consume the key and request, do nothing else.
		aq.Recv()
		aq.Recv()
	}()
	go func() {
		bq.Recv() // key
		bq.Recv() // compare
		// Garbage: right arity (2 active attrs), invalid ciphertext 0.
		bq.Send(&Message{Kind: MsgResult, Res: []*big.Int{big.NewInt(0), big.NewInt(0)}})
	}()
	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compare(0, 0); err == nil {
		t.Error("querying party should reject invalid ciphertexts")
	}
}

func TestQueryRejectsWrongArityResult(t *testing.T) {
	spec := testSpec()
	qa, aq := NewConnPair()
	qb, bq := NewConnPair()
	go func() {
		aq.Recv()
		aq.Recv()
	}()
	go func() {
		bq.Recv()
		bq.Recv()
		bq.Send(&Message{Kind: MsgResult, Res: []*big.Int{big.NewInt(5)}})
	}()
	q, err := NewQuerySession(qa, qb, spec, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Compare(0, 0); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("error = %v, want malformed-result complaint", err)
	}
}

func TestReceiveKeyRejectsBadModulus(t *testing.T) {
	a, b := NewConnPair()
	go a.Send(&Message{Kind: MsgPublicKey, N: big.NewInt(-5)})
	if _, err := receiveKey(b); err == nil {
		t.Error("non-positive modulus should be rejected")
	}
}

// TestHoldersRejectDegenerateModulus: a query that sends N = 3 (every unit
// of order ≤ 2, so no noise base exists) or an even N (no Montgomery
// inverse) must make both holder loops fail promptly, not spin.
func TestHoldersRejectDegenerateModulus(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*big.Int{big.NewInt(3), new(big.Int).Lsh(sk.N, 1)} {
		spec := testSpec()
		qa, _, aErrs := startAlice(t, [][]int64{{1, 2, 3}}, spec)
		qb, _, bErrs := startBob(t, [][]int64{{1, 2, 3}}, spec)
		for _, c := range []Conn{qa, qb} {
			if err := c.Send(&Message{Kind: MsgPublicKey, N: n}); err != nil {
				t.Fatal(err)
			}
		}
		for role, errs := range map[string]chan error{"alice": aErrs, "bob": bErrs} {
			select {
			case err := <-errs:
				if err == nil || !strings.Contains(err.Error(), "modulus") {
					t.Errorf("N=%v: %s error = %v, want modulus complaint", n, role, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("N=%v: %s still running after 2 s", n, role)
			}
		}
	}
}
