package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// benchKeyBits is the paper's key size; the micro-benchmarks exist to
// keep the kernel costs at that size visible (bench-smoke compiles and
// runs them once per CI pass so they cannot rot).
const benchKeyBits = 1024

var (
	benchOnce sync.Once
	benchSK   *PrivateKey
)

func benchKey(b *testing.B) *PrivateKey {
	b.Helper()
	benchOnce.Do(func() {
		k, err := GenerateKey(rand.Reader, benchKeyBits)
		if err != nil {
			b.Fatalf("GenerateKey: %v", err)
		}
		benchSK = k
	})
	return benchSK
}

func benchCiphertext(b *testing.B, sk *PrivateKey, v int64) *Ciphertext {
	b.Helper()
	ct, err := sk.EncryptInt64(rand.Reader, v)
	if err != nil {
		b.Fatalf("EncryptInt64: %v", err)
	}
	return ct
}

func BenchmarkEncrypt(b *testing.B) {
	sk := benchKey(b)
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	sk := benchKey(b)
	ct := benchCiphertext(b, sk, 123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptDirect(b *testing.B) {
	sk := benchKey(b)
	// A key without the prime factors decrypts via Lambda/Mu.
	direct := &PrivateKey{PublicKey: sk.PublicKey, Lambda: sk.Lambda, Mu: sk.Mu}
	ct := benchCiphertext(b, sk, 123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := direct.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	sk := benchKey(b)
	x := benchCiphertext(b, sk, 11)
	y := benchCiphertext(b, sk, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(x, y)
	}
}

func BenchmarkAddConst(b *testing.B) {
	sk := benchKey(b)
	ct := benchCiphertext(b, sk, 11)
	k := big.NewInt(-65)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.AddConst(ct, k)
	}
}

// BenchmarkMulConst contrasts the exponent sizes the protocol produces:
// small positive (Bob's record values), small negative (the fast path
// that previously cost a full-width exponentiation), the 40-bit blinding
// factor, and a full-width random constant (the generic path).
func BenchmarkMulConst(b *testing.B) {
	sk := benchKey(b)
	ct := benchCiphertext(b, sk, 17)
	full, err := rand.Int(rand.Reader, sk.N)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    *big.Int
	}{
		{"small", big.NewInt(12345)},
		{"small-negative", big.NewInt(-12345)},
		{"blind40", new(big.Int).Lsh(one, 40)},
		{"full-width", full},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sk.MulConst(ct, tc.k)
			}
		})
	}
}

// BenchmarkPackUnpack measures the packed-response kernels at the SMC
// slot width: packing d=4 blinded outputs into one ciphertext versus the
// single decryption that replaces four.
func BenchmarkPackUnpack(b *testing.B) {
	sk := benchKey(b)
	plan, err := NewPackPlan(sk.N.BitLen(), 106)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEncryptor(rand.Reader, sk.Public())
	if err != nil {
		b.Fatal(err)
	}
	slots := benchSlots(b, sk, 4)
	b.Run("pack4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.PackBlinded(rand.Reader, slots, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	packed, err := e.PackBlinded(rand.Reader, slots, plan)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unpack4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.UnpackSigned(packed[0], plan, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSlots encrypts n small distances with 40-bit blinds, as Bob's
// packed results carry them.
func benchSlots(b *testing.B, sk *PrivateKey, n int) []BlindedSlot {
	b.Helper()
	slots := make([]BlindedSlot, n)
	for i := range slots {
		rho, err := sk.RandomBlind(rand.Reader, 40)
		if err != nil {
			b.Fatal(err)
		}
		off := new(big.Int).Mul(rho, big.NewInt(-17))
		slots[i] = BlindedSlot{Ct: benchCiphertext(b, sk, int64(i*i)), Scale: rho.Uint64(), Offset: off}
	}
	return slots
}

// BenchmarkBlindPack1024 is Bob's work for one 5-attribute packed result
// at the SMC slot width: the fused Montgomery chain against the reference
// it replaced (MulConst(ρ), AddConst per value, PackSigned, Rerandomize).
func BenchmarkBlindPack1024(b *testing.B) {
	sk := benchKey(b)
	plan, err := NewPackPlan(sk.N.BitLen(), 106)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEncryptor(rand.Reader, sk.Public())
	if err != nil {
		b.Fatal(err)
	}
	slots := benchSlots(b, sk, 5)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.PackBlinded(rand.Reader, slots, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		cts := make([]*Ciphertext, len(slots))
		for i := 0; i < b.N; i++ {
			for k, s := range slots {
				cts[k] = sk.AddConst(sk.MulConst(s.Ct, new(big.Int).SetUint64(s.Scale)), s.Offset)
			}
			packed, err := sk.PackSigned(cts, plan)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Rerandomize(rand.Reader, packed[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMontMul1024 contrasts one multiplication mod N² at the paper's
// key size: Montgomery form against Mul followed by QuoRem.
func BenchmarkMontMul1024(b *testing.B) {
	sk := benchKey(b)
	x := benchCiphertext(b, sk, 3).C
	y := benchCiphertext(b, sk, 5).C
	b.Run("montgomery", func(b *testing.B) {
		c := newMont(sk.N2)
		var s montScratch
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			c.mul(z, x, y, &s)
		}
	})
	b.Run("quorem", func(b *testing.B) {
		t, q, r := new(big.Int), new(big.Int), new(big.Int)
		for i := 0; i < b.N; i++ {
			q.QuoRem(t.Mul(x, y), sk.N2, r)
		}
	})
}

// BenchmarkNoiseFull1024 vs BenchmarkNoiseFixedBase1024 isolates one
// noise unit at the paper's key size: the reference r^N against the
// Encryptor's comb walk h^x; BenchmarkEncryptorSetup1024 is the
// per-key cost of drawing h and building its comb.
func BenchmarkNoiseFull1024(b *testing.B) {
	pk := benchKey(b).Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.noiseUnit(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoiseFixedBase1024(b *testing.B) {
	e, err := NewEncryptor(rand.Reader, benchKey(b).Public())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.mulNoise(rand.Reader, one); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptorSetup1024(b *testing.B) {
	pk := benchKey(b).Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEncryptor(rand.Reader, pk); err != nil {
			b.Fatal(err)
		}
	}
}
