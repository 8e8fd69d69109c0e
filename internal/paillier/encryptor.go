package paillier

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync"
)

// Geometry of the fixed-base noise comb (Lim–Lee, CRYPTO '94): a
// noiseExpBits-bit exponent is cut into combRows rows of combBlocks blocks
// of combBlockBits bits. Entry (j, u), for block j and a non-zero column
// pattern u of combRows bits, is the product of
// h^(2^(combRowBits·i + combBlockBits·j)) over the set bits i of u, so a
// walk costs 7 squarings and at most 32 multiplications.
const (
	noiseExpBits  = 256
	combRows      = 8
	combBlocks    = 4
	combBlockBits = 8
	combRowBits   = combBlocks * combBlockBits // 32 = noiseExpBits / combRows
	combCols      = 1<<combRows - 1            // 255 non-zero column patterns
)

// mont multiplies modulo an odd M in Montgomery form, x̃ = x·R mod M with
// R = 2^(UintSize·words), using only big.Int multiplication, addition and
// word slicing: REDC(T) = (T + ((T mod R)·M′ mod R)·M)/R with
// M′ = −M⁻¹ mod R replaces the long division that follows every math/big
// modular multiply. A context is built per key and holds no per-call state.
type mont struct {
	m     *big.Int
	words int      // R = 2^(UintSize·words) > M
	mInv  *big.Int // M′
	rr    *big.Int // R² mod M: mul(x, rr) = x̃
}

func newMont(m *big.Int) *mont {
	words := len(m.Bits())
	r := new(big.Int).Lsh(one, uint(words*bits.UintSize))
	inv := new(big.Int).ModInverse(m, r) // M is odd, so the inverse exists
	rr := new(big.Int).Lsh(one, uint(2*words*bits.UintSize))
	return &mont{m: m, words: words, mInv: inv.Sub(r, inv), rr: rr.Mod(rr, m)}
}

// montScratch holds one multiplication chain's temporaries; montPool
// recycles them so their double-width buffers stay off the allocator.
type montScratch struct{ t, u, v, lo big.Int }

var montPool = sync.Pool{New: func() any { return new(montScratch) }}

// low sets z to x mod R by slicing x's words; z aliases x and must only
// be read.
func (c *mont) low(z, x *big.Int) *big.Int {
	w := x.Bits()
	return z.SetBits(w[:min(len(w), c.words):min(len(w), c.words)])
}

// mul sets z = a·b·R⁻¹ mod M for 0 ≤ a, b < M. z may alias a or b.
// Multiplying two Montgomery forms keeps the form; multiplying one by a
// plain value leaves the plain product.
func (c *mont) mul(z, a, b *big.Int, s *montScratch) *big.Int {
	s.t.Mul(a, b) // squares when a == b
	s.u.Mul(c.low(&s.lo, &s.t), c.mInv)
	s.v.Mul(c.low(&s.lo, &s.u), c.m)
	s.v.Add(&s.v, &s.t)
	z.Rsh(&s.v, uint(c.words*bits.UintSize))
	if z.Cmp(c.m) >= 0 {
		z.Sub(z, c.m)
	}
	return z
}

// sqr squares z in place n times.
func (c *mont) sqr(z *big.Int, n int, s *montScratch) *big.Int {
	for ; n > 0; n-- {
		c.mul(z, z, z, s)
	}
	return z
}

// Encryptor encrypts and rerandomizes under one public key with
// short-exponent noise. It fixes a base h = r₀^N mod N² for a random unit
// r₀ and draws every noise unit as h^x for a fresh uniform 256-bit x: an
// N-th residue, hence an encryption of zero, like the reference path's
// r^N. A comb over h (1020 entries, about 256 KB at a 1024-bit N, in one
// flat word slab) in Montgomery form replaces the 1024-bit exponentiation.
//
// The units are computationally, not statistically, indistinguishable
// from fresh r^N — the short-exponent assumption PROTOCOL.md states. The
// table is read-only after construction, so an Encryptor is safe for
// concurrent use and owns no goroutines.
type Encryptor struct {
	pk   *PublicKey
	mont *mont
	h    *big.Int
	// table[(j·combCols+u−1)·words:][:words] holds entry (j, u) in
	// Montgomery form, little-endian and zero-padded.
	table []big.Word
}

// NewEncryptor draws the base from random and precomputes its comb.
func NewEncryptor(random io.Reader, pk *PublicKey) (*Encryptor, error) {
	if _, err := NewPublicKey(pk.N); err != nil {
		return nil, err
	}
	c := newMont(pk.N2)
	e := &Encryptor{pk: pk, mont: c, table: make([]big.Word, combBlocks*combCols*c.words)}
	var s montScratch
	for e.h == nil {
		h, err := pk.noiseUnit(random)
		if err != nil {
			return nil, err
		}
		// A base of order ≤ 2 (r₀ = 1 gives h = 1, r₀ = N−1 gives N²−1)
		// would make every unit ±1 and rerandomized ciphertexts linkable.
		if s.t.Mul(h, h).Mod(&s.t, pk.N2).Cmp(one) != 0 {
			e.h = h
		}
	}
	// base[i] = h̃^(2^(combRowBits·i + combBlockBits·j)) while block j is
	// filled; entry (j, u) is entry (j, u without its top bit) · base[top].
	var base [combRows]*big.Int
	base[0] = c.mul(new(big.Int), e.h, c.rr, &s)
	for i := 1; i < combRows; i++ {
		base[i] = c.sqr(new(big.Int).Set(base[i-1]), combRowBits, &s)
	}
	var ent, prod big.Int
	for j := 0; j < combBlocks; j++ {
		for u := 1; u <= combCols; u++ {
			top := bits.Len(uint(u)) - 1
			z := base[top]
			if u != 1<<top {
				z = c.mul(&prod, e.at(&ent, j, u-1<<top), z, &s)
			}
			copy(e.table[e.off(j, u):], z.Bits())
		}
		for _, b := range base {
			c.sqr(b, combBlockBits, &s)
		}
	}
	return e, nil
}

// off returns the slab offset of comb entry (j, u).
func (e *Encryptor) off(j, u int) int { return (j*combCols + u - 1) * e.mont.words }

// at sets z to comb entry (j, u), aliasing the slab read-only.
func (e *Encryptor) at(z *big.Int, j, u int) *big.Int {
	o := e.off(j, u)
	return z.SetBits(e.table[o : o+e.mont.words : o+e.mont.words])
}

// pow sets z = h̃^x, the Montgomery form of h^x mod N², for the big-endian
// exponent x of noiseExpBits/8 bytes, walking the comb from the top bit of
// every block down.
func (e *Encryptor) pow(z *big.Int, x []byte, s *montScratch) *big.Int {
	var ent big.Int
	started := false
	for k := combBlockBits - 1; k >= 0; k-- {
		if started {
			e.mont.mul(z, z, z, s)
		}
		for j := combBlocks - 1; j >= 0; j-- {
			// Bit combRowBits·i + combBlockBits·j + k of x, for every row i.
			u := 0
			for i := 0; i < combRows; i++ {
				u |= int(x[len(x)-1-(combRowBits*i+combBlockBits*j)/8]>>k&1) << i
			}
			if u == 0 {
				continue
			}
			if e.at(&ent, j, u); started {
				e.mont.mul(z, z, &ent, s)
			} else {
				z.Set(&ent)
				started = true
			}
		}
	}
	if !started {
		e.mont.mul(z, e.mont.rr, one, s) // R mod M, the Montgomery form of 1
	}
	return z
}

// mulNoise returns c·h^x mod N² for a fresh x and 0 ≤ c < N²: the walk's
// closing Montgomery multiplication by the plain c leaves the plain
// product.
func (e *Encryptor) mulNoise(random io.Reader, c *big.Int) (*Ciphertext, error) {
	var x [noiseExpBits / 8]byte
	if _, err := io.ReadFull(random, x[:]); err != nil {
		return nil, fmt.Errorf("paillier: drawing randomness: %w", err)
	}
	s := montPool.Get().(*montScratch)
	defer montPool.Put(s)
	z := e.pow(new(big.Int), x[:], s)
	return &Ciphertext{C: e.mont.mul(z, z, c, s)}, nil
}

// Encrypt is PublicKey.Encrypt with fixed-base noise.
func (e *Encryptor) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(e.pk.N) >= 0 {
		return nil, ErrMessageRange
	}
	g := new(big.Int).Mul(m, e.pk.N)
	return e.mulNoise(random, g.Add(g, one)) // 1 + m·N < N²
}

// EncryptInt64 is PublicKey.EncryptInt64 with fixed-base noise.
func (e *Encryptor) EncryptInt64(random io.Reader, v int64) (*Ciphertext, error) {
	return e.Encrypt(random, e.pk.encodeSigned(big.NewInt(v)))
}

// Rerandomize is PublicKey.Rerandomize with fixed-base noise.
func (e *Encryptor) Rerandomize(random io.Reader, ct *Ciphertext) (*Ciphertext, error) {
	return e.mulNoise(random, e.reduce(ct.C))
}

// reduce brings a Montgomery operand into [0, N²), copying only if needed.
func (e *Encryptor) reduce(c *big.Int) *big.Int {
	if c.Sign() < 0 || c.Cmp(e.pk.N2) >= 0 {
		return new(big.Int).Mod(c, e.pk.N2)
	}
	return c
}
