package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// Ciphertext slot packing: k signed plaintexts, each of magnitude below
// 2^{w-1}, ride in one ciphertext as disjoint w-bit slots of the single
// plaintext Σ (vᵢ + 2^{w-1})·2^{i·w}. Packing is pure homomorphics — the
// packer holds only ciphertexts: raising a ciphertext to 2^w is w
// squarings (shifting its plaintext left by one slot), all per-slot
// constants, the sign offsets 2^{w-1} among them, are one multiplication
// by g^K, and merging slots is ciphertext multiplication. PackBlinded
// runs all of it, with the per-slot blinding, as one Horner chain. The
// private key side then performs ONE decryption per packed ciphertext
// instead of one per value, which is what makes packing the SMC response
// hot-path optimization: decryption is the querying party's dominant cost.
//
// The offset makes every slot value non-negative (vᵢ + 2^{w-1} ∈ [0, 2^w)
// exactly when |vᵢ| < 2^{w-1}), so slots never borrow from their
// neighbours and the packed plaintext stays below 2^{Slots·w} < N — the
// plan guarantees Slots·w ≤ N.BitLen()−1. UnpackSigned checks that the
// bits above the occupied slots are zero and fails with ErrPackedOverflow
// otherwise; a value that overflows its own slot into a neighbour is not
// detectable here (the carry is absorbed by the next slot), which is why
// callers must enforce the |vᵢ| < 2^{w-1} bound before packing.

// ErrPackedOverflow reports a packed plaintext with non-zero bits above
// its occupied slots: some packed value exceeded the slot bound, or the
// ciphertext was not produced by PackBlinded under the same plan.
var ErrPackedOverflow = errors.New("paillier: packed plaintext overflows its slots")

// PackPlan fixes the slot geometry both ends of a packed exchange must
// share: the slot width and how many slots one ciphertext carries.
type PackPlan struct {
	// SlotBits is the slot width w; packed values must satisfy
	// |v| < 2^{w-1}.
	SlotBits int
	// Slots is the per-ciphertext capacity: ⌊(modBits−1)/w⌋, so a full
	// ciphertext's plaintext stays strictly below 2^{modBits−1} ≤ N.
	Slots int
}

// NewPackPlan derives the packing geometry for a modulus of modBits bits
// and the given slot width. It fails fast when even a single slot does
// not fit — the caller must use a larger key or disable packing.
func NewPackPlan(modBits, slotBits int) (PackPlan, error) {
	if slotBits < 2 {
		return PackPlan{}, fmt.Errorf("paillier: slot width %d too small", slotBits)
	}
	slots := (modBits - 1) / slotBits
	if slots < 1 {
		return PackPlan{}, fmt.Errorf("paillier: %d-bit slots do not fit a %d-bit modulus", slotBits, modBits)
	}
	return PackPlan{SlotBits: slotBits, Slots: slots}, nil
}

// Ciphertexts returns how many packed ciphertexts carry count values:
// ⌈count/Slots⌉.
func (p PackPlan) Ciphertexts(count int) int {
	return (count + p.Slots - 1) / p.Slots
}

// BlindedSlot is one value for Encryptor.Blind or PackBlinded: the signed
// plaintext Scale·m + Offset, where m is the plaintext of Ct and Scale ≥ 1.
type BlindedSlot struct {
	Ct     *Ciphertext
	Scale  uint64
	Offset *big.Int
}

// Blind returns a fresh encryption of s.Scale·m + s.Offset: one
// Montgomery square-and-multiply by the scale, one constant and one noise
// unit, in place of MulConst, AddConst and Rerandomize.
func (e *Encryptor) Blind(random io.Reader, s BlindedSlot) (*Ciphertext, error) {
	return e.chain(random, []BlindedSlot{s}, 0)
}

// PackBlinded packs the signed values Scaleᵢ·mᵢ + Offsetᵢ of slots into
// ⌈len(slots)/Slots⌉ fresh ciphertexts under the plan: slot i of output c
// holds slots[c·Slots+i]. Each output decrypts to the packing of
// encryptions of the same values, Σ (vᵢ + 2^{w-1})·2^{i·w}, but costs one
// Horner chain instead of a MulConst, an AddConst and a shift per value.
// Every value's magnitude must be below 2^{SlotBits-1} (not checkable
// here — enforce before encrypting) and every Scale in [1, 2^{SlotBits-1}).
func (e *Encryptor) PackBlinded(random io.Reader, slots []BlindedSlot, plan PackPlan) ([]*Ciphertext, error) {
	if plan.Slots < 1 || plan.SlotBits < 2 {
		return nil, fmt.Errorf("paillier: invalid pack plan %+v", plan)
	}
	out := make([]*Ciphertext, 0, plan.Ciphertexts(len(slots)))
	for lo := 0; lo < len(slots); lo += plan.Slots {
		ct, err := e.chain(random, slots[lo:min(lo+plan.Slots, len(slots))], plan.SlotBits)
		if err != nil {
			return nil, err
		}
		out = append(out, ct)
	}
	return out, nil
}

// chain returns a fresh encryption of Σᵢ (Scaleᵢ·mᵢ + Offsetᵢ + 2^{w-1})·2^{i·w}
// for w > 0, or of Scale₀·m₀ + Offset₀ for a single slot and w = 0. From
// the highest slot down, acc ← acc^(2^w)·Ctᵢ^Scaleᵢ in Montgomery form, with
// each scale's bits folded into the last squarings of the shift. All
// constants land in one factor g^K = 1 + (K mod N)·N; multiplying acc̃ by
// the plain g^K leaves the plain product, which takes one noise unit.
func (e *Encryptor) chain(random io.Reader, slots []BlindedSlot, w int) (*Ciphertext, error) {
	c := e.mont
	s := montPool.Get().(*montScratch)
	defer montPool.Put(s)
	acc, d, k, half := new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	if w > 0 {
		half.Lsh(one, uint(w-1)) // the sign offset
	}
	for i := len(slots) - 1; i >= 0; i-- {
		sl := slots[i]
		l := bits.Len64(sl.Scale)
		if l == 0 || (w > 0 && l >= w) {
			return nil, fmt.Errorf("paillier: scale %d is zero or does not fit a %d-bit slot", sl.Scale, w)
		}
		c.mul(d, e.reduce(sl.Ct.C), c.rr, s)
		if i == len(slots)-1 {
			acc.Set(d) // the scale's top bit
		} else {
			c.mul(acc, c.sqr(acc, w-l+1, s), d, s)
		}
		for b := l - 2; b >= 0; b-- {
			if c.sqr(acc, 1, s); sl.Scale>>b&1 == 1 {
				c.mul(acc, acc, d, s)
			}
		}
		k.Lsh(k, uint(w)).Add(k, sl.Offset).Add(k, half)
	}
	k.Mod(k, e.pk.N).Mul(k, e.pk.N).Add(k, one)
	return e.mulNoise(random, c.mul(acc, acc, k, s))
}

// UnpackSigned decrypts one packed ciphertext and extracts its first
// count signed slot values, in packing order. It returns
// ErrPackedOverflow when plaintext bits remain above the occupied slots.
func (sk *PrivateKey) UnpackSigned(ct *Ciphertext, plan PackPlan, count int) ([]*big.Int, error) {
	if count < 1 || count > plan.Slots {
		return nil, fmt.Errorf("paillier: unpacking %d values from a %d-slot plan", count, plan.Slots)
	}
	m, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	w := uint(plan.SlotBits)
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, w), one)
	half := new(big.Int).Lsh(one, w-1)
	out := make([]*big.Int, count)
	for i := 0; i < count; i++ {
		v := new(big.Int).And(m, mask)
		out[i] = v.Sub(v, half)
		m.Rsh(m, w)
	}
	if m.Sign() != 0 {
		return nil, ErrPackedOverflow
	}
	return out, nil
}
