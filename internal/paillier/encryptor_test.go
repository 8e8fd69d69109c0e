package paillier

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
	"testing"
)

func newTestEncryptor(t testing.TB, sk *PrivateKey) *Encryptor {
	t.Helper()
	e, err := NewEncryptor(rand.Reader, sk.Public())
	if err != nil {
		t.Fatalf("NewEncryptor: %v", err)
	}
	return e
}

var (
	testEncOnce sync.Once
	testEnc     *Encryptor
)

// testEncryptor returns one Encryptor under the shared test key.
func testEncryptor(t testing.TB) *Encryptor {
	t.Helper()
	sk := key(t)
	testEncOnce.Do(func() { testEnc = newTestEncryptor(t, sk) })
	return testEnc
}

// expBytes encodes x < 2^noiseExpBits as the big-endian exponent pow reads.
func expBytes(x *big.Int) []byte {
	return x.FillBytes(make([]byte, noiseExpBits/8))
}

// walk returns h^x mod N² from the comb walk, out of Montgomery form.
func walk(e *Encryptor, x *big.Int) *big.Int {
	var s montScratch
	z := e.pow(new(big.Int), expBytes(x), &s)
	return e.mont.mul(z, z, one, &s)
}

// plainNoise draws one noise unit h^x mod N².
func plainNoise(t testing.TB, e *Encryptor) *big.Int {
	t.Helper()
	rn, err := e.mulNoise(rand.Reader, one)
	if err != nil {
		t.Fatal(err)
	}
	return rn.C
}

// TestFixedBaseExpMatchesExp pins the comb walk to big.Int.Exp for 0, 1,
// all-ones, every single bit 2^i (so every row, block and column of the
// comb alone), each block's all-ones pattern and random exponents.
func TestFixedBaseExpMatchesExp(t *testing.T) {
	sk := key(t)
	e := newTestEncryptor(t, sk)
	pow2 := func(k int) *big.Int { return new(big.Int).Lsh(one, uint(k)) }
	xs := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(pow2(noiseExpBits), one),
	}
	for i := 0; i < noiseExpBits; i++ {
		xs = append(xs, pow2(i))
	}
	for i := combBlockBits; i < noiseExpBits; i += combBlockBits {
		xs = append(xs, new(big.Int).Sub(pow2(i), one))
	}
	rng := mrand.New(mrand.NewSource(1))
	limit := pow2(noiseExpBits)
	for i := 0; i < 64; i++ {
		xs = append(xs, new(big.Int).Rand(rng, limit))
	}
	for _, x := range xs {
		want := new(big.Int).Exp(e.h, x, sk.N2)
		if got := walk(e, x); got.Cmp(want) != 0 {
			t.Errorf("pow(%#x) = %v, want %v", x, got, want)
		}
	}
}

// TestNewEncryptorRejectsDegenerateModulus: N = 3 has no unit of order
// above 2, so the base search would never end, and an even N has no
// Montgomery inverse; these, a short odd N and zero must fail at once.
func TestNewEncryptorRejectsDegenerateModulus(t *testing.T) {
	short := new(big.Int).Sub(new(big.Int).Lsh(one, minKeyBits-1), one) // odd, 63 bits
	even := new(big.Int).Lsh(key(t).N, 1)
	for _, n := range []*big.Int{big.NewInt(3), short, even, new(big.Int)} {
		if _, err := NewEncryptor(rand.Reader, &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}); err == nil {
			t.Errorf("NewEncryptor(N=%v): err = nil", n)
		}
		if _, err := NewPublicKey(n); err == nil {
			t.Errorf("NewPublicKey(%v): err = nil", n)
		}
	}
	if pk, err := NewPublicKey(key(t).N); err != nil || pk.N2.Cmp(key(t).N2) != 0 {
		t.Errorf("NewPublicKey(generated N) = %v, %v", pk, err)
	}
}

func TestEncryptorEncryptDecrypt(t *testing.T) {
	sk := key(t)
	e := newTestEncryptor(t, sk)

	for _, v := range []int64{0, 1, -1, 123456, -98765} {
		ct, err := e.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatalf("EncryptInt64(%d): %v", v, err)
		}
		got, err := sk.DecryptSigned(ct)
		if err != nil {
			t.Fatalf("DecryptSigned(%d): %v", v, err)
		}
		if got.Int64() != v {
			t.Errorf("roundtrip %d = %d", v, got.Int64())
		}
	}
	top := new(big.Int).Sub(sk.N, one)
	ct, err := e.Encrypt(rand.Reader, top)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.Decrypt(ct); err != nil || got.Cmp(top) != 0 {
		t.Errorf("Decrypt(Encrypt(N−1)) = %v, %v", got, err)
	}

	// Out-of-range messages are rejected just like PublicKey.Encrypt.
	if _, err := e.Encrypt(rand.Reader, new(big.Int).Neg(one)); err != ErrMessageRange {
		t.Errorf("negative message: err = %v, want ErrMessageRange", err)
	}
	if _, err := e.Encrypt(rand.Reader, sk.N); err != ErrMessageRange {
		t.Errorf("message = N: err = %v, want ErrMessageRange", err)
	}
}

func TestEncryptorRerandomizeUnlinkable(t *testing.T) {
	sk := key(t)
	e := newTestEncryptor(t, sk)

	for _, v := range []int64{42, -42} {
		ct, err := e.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := e.Rerandomize(rand.Reader, ct)
		if err != nil {
			t.Fatal(err)
		}
		if rr.C.Cmp(ct.C) == 0 {
			t.Error("rerandomized ciphertext equals its input")
		}
		got, err := sk.DecryptSigned(rr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != v {
			t.Errorf("rerandomized plaintext = %d, want %d", got.Int64(), v)
		}
	}
}

// TestEncryptorDistinctUnits: two encryptions of the same message must
// use independent randomizers (a repeat would link the ciphertexts), and
// no unit repeats across many draws.
func TestEncryptorDistinctUnits(t *testing.T) {
	sk := key(t)
	e := newTestEncryptor(t, sk)
	a, err := e.EncryptInt64(rand.Reader, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EncryptInt64(rand.Reader, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.C.Cmp(b.C) == 0 {
		t.Error("two encryptions of the same message are identical")
	}
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		k := plainNoise(t, e).String()
		if seen[k] {
			t.Fatalf("noise unit repeated after %d draws", i)
		}
		seen[k] = true
	}
}

// TestEncryptorConcurrent hammers one Encryptor from many goroutines; run
// with -race. Verdicts are verified to catch torn table reads.
func TestEncryptorConcurrent(t *testing.T) {
	sk := key(t)
	e := newTestEncryptor(t, sk)

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := int64(g*1000 + i)
				ct, err := e.EncryptInt64(rand.Reader, v)
				if err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if ct, err = e.Rerandomize(rand.Reader, ct); err != nil {
						errs <- err
						return
					}
				}
				got, err := sk.DecryptSigned(ct)
				if err != nil {
					errs <- err
					return
				}
				if got.Int64() != v {
					t.Errorf("goroutine %d: roundtrip %d = %d", g, v, got.Int64())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEncryptorSkipsDegenerateBase feeds r₀ = 1 (h = 1) and r₀ = N−1
// (h = N²−1, order 2) before a good draw: both would make every unit ±1,
// so the Encryptor must redraw past them.
func TestEncryptorSkipsDegenerateBase(t *testing.T) {
	sk := key(t)
	width := (new(big.Int).Sub(sk.N, one).BitLen() + 7) / 8 // rand.Int's read size
	var draws bytes.Buffer
	good := big.NewInt(2)
	for _, r := range []*big.Int{one, new(big.Int).Sub(sk.N, one), good} {
		draws.Write(r.FillBytes(make([]byte, width)))
	}
	e, err := NewEncryptor(&draws, sk.Public())
	if err != nil {
		t.Fatalf("NewEncryptor: %v", err)
	}
	if draws.Len() != 0 {
		t.Errorf("%d bytes of the crafted draws left unread", draws.Len())
	}
	if want := new(big.Int).Exp(good, sk.N, sk.N2); e.h.Cmp(want) != 0 {
		t.Fatalf("base = %v, want 2^N mod N² = %v", e.h, want)
	}
	minusOne := new(big.Int).Sub(sk.N2, one)
	for i := 0; i < 10; i++ {
		if rn := plainNoise(t, e); rn.Cmp(one) == 0 || rn.Cmp(minusOne) == 0 {
			t.Fatalf("noise unit %v is ±1", rn)
		}
	}
	// A reader that runs dry before a usable base is an error, not a loop.
	if _, err := NewEncryptor(bytes.NewReader(one.FillBytes(make([]byte, width))), sk.Public()); err == nil {
		t.Error("NewEncryptor on exhausted randomness: err = nil")
	} else if !errors.Is(err, io.EOF) {
		t.Errorf("NewEncryptor on exhausted randomness: err = %v, want EOF", err)
	}
}

// FuzzFixedBaseExp reduces arbitrary bytes to a noiseExpBits-bit exponent
// and checks the comb walk against big.Int.Exp.
func FuzzFixedBaseExp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f})
	f.Add([]byte{0x10})
	f.Add(bytes.Repeat([]byte{0xff}, noiseExpBits/8))
	f.Add(bytes.Repeat([]byte{0xa5}, noiseExpBits/8+3))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := testEncryptor(t)
		x := new(big.Int).SetBytes(data)
		x.Mod(x, new(big.Int).Lsh(one, noiseExpBits))
		want := new(big.Int).Exp(e.h, x, e.pk.N2)
		if got := walk(e, x); got.Cmp(want) != 0 {
			t.Fatalf("pow(%#x) = %v, want %v", x, got, want)
		}
	})
}

var (
	montKeyOnce sync.Once
	montKeys    [2]*PrivateKey
)

// FuzzMontMul checks the Montgomery product against Mul+Mod under a
// 64-bit and a 1024-bit key: mont.mul(a, b) must be the reduced
// a·b·R⁻¹, i.e. times R it is a·b mod N². Each operand is either the
// fuzzed bytes mod N² or, by its two edge bits, 0, 1 or N²−1.
func FuzzMontMul(f *testing.F) {
	for edges := uint8(0); edges < 16; edges++ {
		f.Add([]byte{0xde, 0xad}, bytes.Repeat([]byte{0xff}, 300), edges, edges%2 == 0)
	}
	f.Fuzz(func(t *testing.T, a, b []byte, edges uint8, wide bool) {
		montKeyOnce.Do(func() {
			for i, bits := range []int{64, 1024} {
				k, err := GenerateKey(rand.Reader, bits)
				if err != nil {
					t.Fatal(err)
				}
				montKeys[i] = k
			}
		})
		sk := montKeys[0]
		if wide {
			sk = montKeys[1]
		}
		m := sk.N2
		operand := func(data []byte, edge uint8) *big.Int {
			switch edge & 3 {
			case 1:
				return new(big.Int)
			case 2:
				return big.NewInt(1)
			case 3:
				return new(big.Int).Sub(m, one)
			}
			return new(big.Int).Mod(new(big.Int).SetBytes(data), m)
		}
		x, y := operand(a, edges), operand(b, edges>>2)
		c := newMont(m)
		var s montScratch
		got := c.mul(new(big.Int), x, y, &s)
		if got.Sign() < 0 || got.Cmp(m) >= 0 {
			t.Fatalf("mul(%v, %v) = %v, outside [0, N²)", x, y, got)
		}
		r := new(big.Int).Lsh(one, uint(c.words*bits.UintSize))
		lhs := new(big.Int).Mul(got, r)
		lhs.Mod(lhs, m)
		want := new(big.Int).Mul(x, y)
		if want.Mod(want, m); lhs.Cmp(want) != 0 {
			t.Fatalf("mul(%v, %v)·R = %v, want %v", x, y, lhs, want)
		}
		// In place, as the chains use it: z aliasing both operands squares.
		sq := new(big.Int).Set(x)
		c.mul(sq, sq, sq, &s)
		if want := c.mul(new(big.Int), x, new(big.Int).Set(x), &s); sq.Cmp(want) != 0 {
			t.Fatalf("in-place square of %v = %v, want %v", x, sq, want)
		}
	})
}
