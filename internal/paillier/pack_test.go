package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// offset returns the public constant Σ 2^{w-1}·2^{i·w} for i < m: the sum
// of all m per-slot sign offsets, added homomorphically in one AddConst.
func (p PackPlan) offset(m int) *big.Int {
	o := new(big.Int)
	for i := 0; i < m; i++ {
		o.SetBit(o, i*p.SlotBits+p.SlotBits-1, 1)
	}
	return o
}

// PackSigned is the reference packer PackBlinded is pinned to: it packs
// the signed plaintexts of cts into ⌈len(cts)/Slots⌉ ciphertexts with the
// public operators alone, one Exp(acc, 2^w) per shift. Slot i of output
// ciphertext c holds the plaintext of cts[c·Slots+i]; the output
// randomness is a product of the inputs' units.
func (pk *PublicKey) PackSigned(cts []*Ciphertext, plan PackPlan) ([]*Ciphertext, error) {
	if plan.Slots < 1 || plan.SlotBits < 2 {
		return nil, fmt.Errorf("paillier: invalid pack plan %+v", plan)
	}
	out := make([]*Ciphertext, 0, plan.Ciphertexts(len(cts)))
	shift := new(big.Int).Lsh(one, uint(plan.SlotBits)) // exponent 2^w: one slot left
	for lo := 0; lo < len(cts); lo += plan.Slots {
		group := cts[lo:min(lo+plan.Slots, len(cts))]
		// Horner from the highest slot down: each step shifts the
		// accumulated slots up by w bits (SlotBits squarings) and merges
		// the next value into the vacated low slot.
		acc := new(big.Int).Set(group[len(group)-1].C)
		for i := len(group) - 2; i >= 0; i-- {
			acc.Exp(acc, shift, pk.N2)
			acc.Mul(acc, group[i].C)
			acc.Mod(acc, pk.N2)
		}
		// All sign offsets land in one homomorphic constant addition.
		out = append(out, pk.AddConst(&Ciphertext{C: acc}, plan.offset(len(group))))
	}
	return out, nil
}

func TestPackPlanGeometry(t *testing.T) {
	plan, err := NewPackPlan(256, 100)
	if err != nil {
		t.Fatalf("NewPackPlan: %v", err)
	}
	if plan.Slots != 2 {
		t.Errorf("256-bit modulus, 100-bit slots: got %d slots, want 2", plan.Slots)
	}
	for _, tc := range []struct{ count, cts int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}} {
		if got := plan.Ciphertexts(tc.count); got != tc.cts {
			t.Errorf("Ciphertexts(%d) = %d, want %d", tc.count, got, tc.cts)
		}
	}
	if _, err := NewPackPlan(128, 200); err == nil {
		t.Error("slot wider than the modulus must be rejected")
	}
	if _, err := NewPackPlan(256, 1); err == nil {
		t.Error("1-bit slots must be rejected")
	}
}

// encryptSigned encrypts one signed value for the packing tests.
func encryptSigned(t *testing.T, sk *PrivateKey, v *big.Int) *Ciphertext {
	t.Helper()
	ct, err := sk.Encrypt(rand.Reader, sk.encodeSigned(v))
	if err != nil {
		t.Fatalf("Encrypt(%v): %v", v, err)
	}
	return ct
}

// unpackAll decrypts packed ciphertexts holding count values.
func unpackAll(t *testing.T, sk *PrivateKey, plan PackPlan, packed []*Ciphertext, count int) []*big.Int {
	t.Helper()
	if want := plan.Ciphertexts(count); len(packed) != want {
		t.Fatalf("packed into %d ciphertexts, want %d", len(packed), want)
	}
	var out []*big.Int
	for c, ct := range packed {
		vals, err := sk.UnpackSigned(ct, plan, min(plan.Slots, count-c*plan.Slots))
		if err != nil {
			t.Fatalf("UnpackSigned(ct %d): %v", c, err)
		}
		out = append(out, vals...)
	}
	return out
}

// packUnpack round-trips values through the reference PackSigned and
// through PackBlinded at scale 1 and offset 0, failing unless both unpack
// to the same slots.
func packUnpack(t *testing.T, sk *PrivateKey, plan PackPlan, values []*big.Int) []*big.Int {
	t.Helper()
	cts := make([]*Ciphertext, len(values))
	slots := make([]BlindedSlot, len(values))
	for i, v := range values {
		cts[i] = encryptSigned(t, sk, v)
		slots[i] = BlindedSlot{Ct: cts[i], Scale: 1, Offset: new(big.Int)}
	}
	ref, err := sk.PackSigned(cts, plan)
	if err != nil {
		t.Fatalf("PackSigned: %v", err)
	}
	fused, err := testEncryptor(t).PackBlinded(rand.Reader, slots, plan)
	if err != nil {
		t.Fatalf("PackBlinded: %v", err)
	}
	out := unpackAll(t, sk, plan, ref, len(values))
	for i, v := range unpackAll(t, sk, plan, fused, len(values)) {
		if v.Cmp(out[i]) != 0 {
			t.Fatalf("w=%d slot %d: PackBlinded %v, PackSigned %v", plan.SlotBits, i, v, out[i])
		}
	}
	return out
}

// TestPackBlindedMatchesReference pins the fused chain to the pipeline it
// replaced on Bob's side — AddConst(−(T+1)), MulConst(ρ), AddConst(δ) per
// value, then PackSigned — over 1 to 10 values (more than the plan's
// slots, so several packed ciphertexts), random ρ, δ, T and distances,
// in slot order and shuffled: every packed plaintext must be bit-for-bit
// the same.
func TestPackBlindedMatchesReference(t *testing.T) {
	sk := key(t)
	e := testEncryptor(t)
	plan, err := NewPackPlan(sk.N.BitLen(), 106) // the SMC slot at default bounds
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(3))
	blind := new(big.Int).Lsh(one, 40)
	for _, shuffle := range []bool{false, true} {
		for n := 1; n <= 10; n++ {
			ref := make([]*Ciphertext, n)
			slots := make([]BlindedSlot, n)
			for i := range slots {
				d := rng.Int63n(1<<21) - 1<<20
				thr := rng.Int63n(1 << 41)
				rho := new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(blind, one)), one)
				delta := new(big.Int).Rand(rng, rho)
				ct, err := e.EncryptInt64(rand.Reader, d*d)
				if err != nil {
					t.Fatal(err)
				}
				x := sk.AddConst(ct, big.NewInt(-(thr + 1)))
				ref[i] = sk.AddConst(sk.MulConst(x, rho), delta)
				off := new(big.Int).Mul(rho, big.NewInt(thr+1))
				slots[i] = BlindedSlot{Ct: ct, Scale: rho.Uint64(), Offset: off.Sub(delta, off)}
			}
			if shuffle {
				rng.Shuffle(n, func(i, j int) {
					ref[i], ref[j] = ref[j], ref[i]
					slots[i], slots[j] = slots[j], slots[i]
				})
			}
			want, err := sk.PackSigned(ref, plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.PackBlinded(rand.Reader, slots, plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) != plan.Ciphertexts(n) {
				t.Fatalf("n=%d: %d packed ciphertexts, reference %d", n, len(got), len(want))
			}
			for c := range want {
				wm, err := sk.Decrypt(want[c])
				if err != nil {
					t.Fatal(err)
				}
				gm, err := sk.Decrypt(got[c])
				if err != nil {
					t.Fatal(err)
				}
				if gm.Cmp(wm) != 0 {
					t.Errorf("shuffle=%v n=%d ciphertext %d: plaintext %#x, reference %#x", shuffle, n, c, gm, wm)
				}
			}
		}
	}
}

// TestPackBlindedRejectsWideScale: a scale as wide as the slot cannot be
// folded into the shift's squarings and would overflow the slot anyway.
func TestPackBlindedRejectsWideScale(t *testing.T) {
	sk := key(t)
	plan, err := NewPackPlan(sk.N.BitLen(), 40)
	if err != nil {
		t.Fatal(err)
	}
	slots := []BlindedSlot{{Ct: encryptSigned(t, sk, big.NewInt(1)), Scale: 1 << 39, Offset: new(big.Int)}}
	if _, err := testEncryptor(t).PackBlinded(rand.Reader, slots, plan); err == nil {
		t.Error("40-bit scale in a 40-bit slot: err = nil")
	}
}

// TestBlindMatchesReference pins the unpacked one-slot chain to
// MulConst+AddConst, including negative offsets and a 63-bit scale; a
// zero scale is refused.
func TestBlindMatchesReference(t *testing.T) {
	sk := key(t)
	e := testEncryptor(t)
	for _, tc := range []struct{ m, scale, off int64 }{{7, 3, -22}, {-5, 1 << 39, 12345}, {9, 1, -1}, {0, 1, 0}, {-1, 1<<63 - 1, 0}} {
		ct := encryptSigned(t, sk, big.NewInt(tc.m))
		got, err := e.Blind(rand.Reader, BlindedSlot{Ct: ct, Scale: uint64(tc.scale), Offset: big.NewInt(tc.off)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := sk.DecryptSigned(got)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.scale*tc.m + tc.off; v.Int64() != want {
			t.Errorf("Blind(%d·%d + %d) = %v, want %d", tc.scale, tc.m, tc.off, v, want)
		}
	}
	if _, err := e.Blind(rand.Reader, BlindedSlot{Ct: encryptSigned(t, sk, big.NewInt(1)), Scale: 0, Offset: new(big.Int)}); err == nil {
		t.Error("Blind with scale 0: err = nil")
	}
}

func TestPackSignedRoundTrip(t *testing.T) {
	sk := key(t)
	plan, err := NewPackPlan(sk.N.BitLen(), 64)
	if err != nil {
		t.Fatalf("NewPackPlan: %v", err)
	}
	bound := new(big.Int).Lsh(one, 63) // slot magnitude bound 2^{w-1}
	maxV := new(big.Int).Sub(bound, one)
	minV := new(big.Int).Neg(maxV)
	values := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(123456789), big.NewInt(-987654321),
		maxV, minV, // overflow boundary: the extreme representable slots
	}
	got := packUnpack(t, sk, plan, values)
	for i, v := range values {
		if got[i].Cmp(v) != 0 {
			t.Errorf("slot %d: %v -> %v", i, v, got[i])
		}
	}
}

func TestPackSignedSingleSlot(t *testing.T) {
	sk := key(t)
	// A slot nearly as wide as the modulus leaves exactly one slot per
	// ciphertext: packing degenerates to offset-plus-rerandomize.
	plan, err := NewPackPlan(sk.N.BitLen(), sk.N.BitLen()-1)
	if err != nil {
		t.Fatalf("NewPackPlan: %v", err)
	}
	if plan.Slots != 1 {
		t.Fatalf("got %d slots, want 1", plan.Slots)
	}
	values := []*big.Int{big.NewInt(-42), big.NewInt(7), big.NewInt(0)}
	got := packUnpack(t, sk, plan, values)
	for i, v := range values {
		if got[i].Cmp(v) != 0 {
			t.Errorf("slot %d: %v -> %v", i, v, got[i])
		}
	}
}

func TestUnpackDetectsOverflow(t *testing.T) {
	sk := key(t)
	plan, err := NewPackPlan(sk.N.BitLen(), 64)
	if err != nil {
		t.Fatalf("NewPackPlan: %v", err)
	}
	// A plaintext with a bit above the top slot cannot come from honest
	// packing; every slot count must reject it.
	over := new(big.Int).Lsh(one, uint(plan.Slots*plan.SlotBits))
	ct, err := sk.Encrypt(rand.Reader, over)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := sk.UnpackSigned(ct, plan, plan.Slots); !errors.Is(err, ErrPackedOverflow) {
		t.Errorf("got %v, want ErrPackedOverflow", err)
	}
}

func TestUnpackCountValidation(t *testing.T) {
	sk := key(t)
	plan, err := NewPackPlan(sk.N.BitLen(), 64)
	if err != nil {
		t.Fatalf("NewPackPlan: %v", err)
	}
	ct := encryptSigned(t, sk, big.NewInt(5))
	if _, err := sk.UnpackSigned(ct, plan, 0); err == nil {
		t.Error("count 0 must be rejected")
	}
	if _, err := sk.UnpackSigned(ct, plan, plan.Slots+1); err == nil {
		t.Error("count beyond the plan's slots must be rejected")
	}
}

// TestMulConstFastPathMatchesGeneric pins the small-exponent MulConst
// paths (direct small positive, inverted small negative) to the generic
// full-width-exponent computation they replace.
func TestMulConstFastPathMatchesGeneric(t *testing.T) {
	sk := key(t)
	ct := encryptSigned(t, sk, big.NewInt(17))
	for _, k := range []int64{0, 1, 3, 1 << 40, -1, -2, -7, -(1 << 40)} {
		kb := big.NewInt(k)
		got, err := sk.DecryptSigned(sk.MulConst(ct, kb))
		if err != nil {
			t.Fatalf("DecryptSigned(MulConst %d): %v", k, err)
		}
		generic := new(big.Int).Exp(ct.C, sk.encodeSigned(kb), sk.N2)
		want, err := sk.DecryptSigned(&Ciphertext{C: generic})
		if err != nil {
			t.Fatalf("DecryptSigned(generic %d): %v", k, err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("MulConst(%d): got %v, generic path %v", k, got, want)
		}
	}
}

// FuzzPackedSigned fuzzes the pack/unpack round trip over random slot
// widths, counts, and signed values, including the ±(2^{w-1}−1) overflow
// boundary and the single-slot degenerate geometry.
func FuzzPackedSigned(f *testing.F) {
	f.Add(uint8(64), uint8(3), int64(12345), true)
	f.Add(uint8(8), uint8(17), int64(-1), false)
	f.Add(uint8(200), uint8(2), int64(0), true)  // single-slot plan at 256 bits
	f.Add(uint8(2), uint8(40), int64(99), false) // minimal slot width
	f.Fuzz(func(t *testing.T, widthSeed, countSeed uint8, valueSeed int64, boundary bool) {
		sk := key(t)
		modBits := sk.N.BitLen()
		slotBits := 2 + int(widthSeed)%(modBits-2)
		plan, err := NewPackPlan(modBits, slotBits)
		if err != nil {
			t.Fatalf("NewPackPlan(%d, %d): %v", modBits, slotBits, err)
		}
		count := 1 + int(countSeed)%(3*plan.Slots)
		bound := new(big.Int).Lsh(one, uint(slotBits-1)) // values in (−2^{w-1}, 2^{w-1})
		span := new(big.Int).Sub(new(big.Int).Lsh(bound, 1), one)
		rng := mrand.New(mrand.NewSource(valueSeed))
		values := make([]*big.Int, count)
		for i := range values {
			if boundary && i%2 == 0 {
				// Extreme representable slot values, alternating sign.
				values[i] = new(big.Int).Sub(bound, one)
				if i%4 == 0 {
					values[i] = new(big.Int).Neg(values[i])
				}
			} else {
				v := new(big.Int).Rand(rng, span)
				values[i] = v.Sub(v, new(big.Int).Sub(bound, one))
			}
		}
		got := packUnpack(t, sk, plan, values)
		for i, v := range values {
			if got[i].Cmp(v) != 0 {
				t.Fatalf("w=%d count=%d slot %d: %v -> %v", slotBits, count, i, v, got[i])
			}
		}
	})
}
