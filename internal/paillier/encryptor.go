package paillier

import (
	"fmt"
	"io"
	"math/big"
)

// Geometry of the fixed-base noise table: exponents of noiseExpBits bits
// read in noiseWindow-bit digits (the window must divide 8, so digits
// never straddle a byte), one table row per digit position holding the
// row's non-zero digit powers.
const (
	noiseExpBits = 256
	noiseWindow  = 4
	noiseDigits  = noiseExpBits / noiseWindow
	noiseRow     = 1<<noiseWindow - 1
)

// Encryptor encrypts and rerandomizes under one public key with
// short-exponent noise. It fixes a base h = r₀^N mod N² for a random unit
// r₀ and draws every noise unit as h^x for a fresh uniform 256-bit x: an
// N-th residue, hence an encryption of zero, like the reference path's
// r^N. A table of h^(d·16^i) for every window position i and digit d
// (64×15 entries, about 256 KB at a 1024-bit N) turns each unit into about
// 64 modular multiplications instead of a 1024-bit exponentiation.
//
// The units are computationally, not statistically, indistinguishable
// from fresh r^N — the short-exponent assumption PROTOCOL.md states. The
// table is read-only after construction, so an Encryptor is safe for
// concurrent use and owns no goroutines.
type Encryptor struct {
	pk *PublicKey
	h  *big.Int
	// table[i*noiseRow+d-1] = h^(d·2^(noiseWindow·i)) mod N².
	table []*big.Int
}

// NewEncryptor draws the base from random and precomputes its table.
func NewEncryptor(random io.Reader, pk *PublicKey) (*Encryptor, error) {
	e := &Encryptor{pk: pk, table: make([]*big.Int, noiseDigits*noiseRow)}
	t, q, r := new(big.Int), new(big.Int), new(big.Int)
	// mulMod returns a·b mod N² in a right-sized Int: reducing the product
	// in place would keep its double-width backing array in the table.
	mulMod := func(a, b *big.Int) *big.Int {
		q.QuoRem(t.Mul(a, b), pk.N2, r)
		return new(big.Int).Set(r)
	}
	for e.h == nil {
		h, err := pk.noiseUnit(random)
		if err != nil {
			return nil, err
		}
		// A base of order ≤ 2 (r₀ = 1 gives h = 1, r₀ = N−1 gives N²−1)
		// would make every unit ±1 and rerandomized ciphertexts linkable.
		if mulMod(h, h).Cmp(one) != 0 {
			e.h = h
		}
	}
	base := e.h
	for i := 0; i < noiseDigits; i++ {
		row := e.table[i*noiseRow : (i+1)*noiseRow]
		row[0] = base
		for d := 1; d < noiseRow; d++ {
			row[d] = mulMod(row[d-1], base)
		}
		// The next row's base is base^(2^noiseWindow) = base^noiseRow · base.
		base = mulMod(row[noiseRow-1], base)
	}
	return e, nil
}

// pow returns h^x mod N² for the big-endian exponent x of noiseExpBits/8
// bytes: one table multiplication per non-zero digit, no squarings.
func (e *Encryptor) pow(x []byte) *big.Int {
	acc := new(big.Int).Set(one)
	t := scratch.Get().(*big.Int)
	q := scratch.Get().(*big.Int)
	for i := 0; i < noiseDigits; i++ {
		b := x[len(x)-1-i*noiseWindow/8]
		if d := int(b>>(i*noiseWindow%8)) & noiseRow; d != 0 {
			t.Mul(acc, e.table[i*noiseRow+d-1])
			q.QuoRem(t, e.pk.N2, acc)
		}
	}
	scratch.Put(t)
	scratch.Put(q)
	return acc
}

// noise draws a fresh noise unit h^x.
func (e *Encryptor) noise(random io.Reader) (*big.Int, error) {
	var x [noiseExpBits / 8]byte
	if _, err := io.ReadFull(random, x[:]); err != nil {
		return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
	}
	return e.pow(x[:]), nil
}

// Encrypt is PublicKey.Encrypt with fixed-base noise.
func (e *Encryptor) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	rn, err := e.noise(random)
	if err != nil {
		return nil, err
	}
	return e.pk.encryptWithNoise(m, rn)
}

// EncryptInt64 is PublicKey.EncryptInt64 with fixed-base noise.
func (e *Encryptor) EncryptInt64(random io.Reader, v int64) (*Ciphertext, error) {
	return e.Encrypt(random, e.pk.encodeSigned(big.NewInt(v)))
}

// Rerandomize is PublicKey.Rerandomize with fixed-base noise.
func (e *Encryptor) Rerandomize(random io.Reader, ct *Ciphertext) (*Ciphertext, error) {
	rn, err := e.noise(random)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(ct.C, rn)
	c.Mod(c, e.pk.N2)
	return &Ciphertext{C: c}, nil
}
