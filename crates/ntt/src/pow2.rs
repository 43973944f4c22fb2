//! Exact negacyclic multiplication over a power-of-two ring `Z_{2^l}`.
//!
//! A power-of-two ciphertext modulus buys free reduction on the MAC path
//! (see `flash_math::pow2`), but the NTT itself needs a prime with
//! `q ≡ 1 (mod 2N)` — `2^l` has no roots of unity of the right order. The
//! handful of places that still need an *exact* dense product on the
//! power-of-two ring (key-side `a·s` and `p·u` multiplies during
//! encryption/decryption, where the operands are too dense for the
//! schoolbook fallback) lift instead through a two-limb CRT of
//! NTT-friendly primes:
//!
//! 1. center-lift both operands out of `Z_{2^l}` into signed integers,
//! 2. multiply exactly modulo each helper prime with the shared
//!    Shoup-NTT kernels,
//! 3. Garner-reconstruct the centered integer product and truncate it
//!    back modulo `2^l` (a wrapping cast + mask).
//!
//! A small operand that multiplies many others — a secret key — is
//! *hoisted* once ([`Pow2Ring::hoist_small`]): its per-limb spectra are
//! kept in Shoup form, so each later product
//! ([`Pow2Ring::mul_hoisted_batch_into`]) transforms only the other
//! operand and recombines through a division-free two-limb Garner step.
//! [`Pow2Ring::negacyclic_mul_small_into`] transforms both operands and
//! recombines through the general [`CrtBasis`]; it serves operands that
//! are fresh per call (public-key encryption randomness) and is the
//! hoisted path's test oracle.
//!
//! Exactness requires the true integer product to fit the CRT range:
//! every coefficient of `a·b mod (X^N + 1)` is a sum of `N` terms bounded
//! by `(q/2)·‖b‖_∞`, so the basis product `P ≈ 2^100` covers
//! `N·(q/2)·‖b‖_∞ < P/2` — comfortable for the ternary secrets and
//! encryption randomness this path serves (`‖b‖_∞ ≤ 1` leaves > 25 bits
//! of slack at `N = 4096`, `q = 2^62`), but *not* for a product of two
//! full-magnitude operands. The API is therefore named and guarded for a
//! small second operand.

use crate::polymul::{negacyclic_mul_hoisted_batch_assign, negacyclic_mul_ntt_into, ShoupSpectrum};
use crate::tables::NttTables;
use flash_math::crt::CrtBasis;
use flash_math::modular::{center_lift, from_signed, inv_mod, Barrett, Shoup};
use flash_math::pow2::is_pow2_modulus;
use flash_runtime::U64_SCRATCH;
use std::sync::Arc;

/// Bit width of the CRT helper primes. Two limbs give `P > 2^98`, enough
/// for `N·(q/2)·‖b‖_∞` with `N ≤ 2^13`, `q ≤ 2^62` and small `b`.
const LIMB_BITS: u32 = 50;

/// Precomputed context for exact products on `Z_{2^l}[X]/(X^N + 1)`:
/// the power-of-two modulus plus the two-limb CRT-NTT lift.
#[derive(Debug)]
pub struct Pow2Ring {
    q: u64,
    mask: u64,
    limbs: Vec<Arc<NttTables>>,
    crt: CrtBasis,
    /// Division-free lift into each limb.
    lifts: [Barrett; 2],
    garner: Garner2,
    /// Largest `‖b‖_∞` for which the CRT lift is provably exact.
    max_small: u64,
}

/// Garner recombination specialised to two limbs `p0, p1` with
/// `p0 < 2·p1`: `v = r0 + p0·((r1 − r0)·p0⁻¹ mod p1)`, centered into
/// `(−P/2, P/2]` and truncated mod `2^64`. One Shoup multiply, no
/// division, no allocation; the same value as
/// [`CrtBasis::reconstruct_centered`].
#[derive(Debug)]
struct Garner2 {
    p0: u64,
    p1: u64,
    /// `p0⁻¹ mod p1`.
    p0_inv: Shoup,
    /// `P = p0·p1`.
    product: u128,
    /// `⌊P/2⌋`.
    half: u128,
}

impl Garner2 {
    fn new(p0: u64, p1: u64) -> Self {
        assert!(p0 < 2 * p1, "two-limb Garner needs p0 < 2·p1");
        let inv = inv_mod(p0 % p1, p1).expect("CRT limbs are coprime");
        let product = p0 as u128 * p1 as u128;
        Self {
            p0,
            p1,
            p0_inv: Shoup::new(inv, p1),
            product,
            half: product / 2,
        }
    }

    /// The centered integer with residues `(r0, r1)`, modulo `2^64`.
    #[inline(always)]
    fn centered_wrapping(&self, r0: u64, r1: u64) -> u64 {
        // r0 < p0 < 2·p1, so r1 + 2·p1 − r0 is positive; the Shoup
        // multiply reduces any u64 operand.
        let d = self.p0_inv.mul(r1 + 2 * self.p1 - r0, self.p1);
        let v = r0 as u128 + d as u128 * self.p0 as u128;
        if v > self.half {
            (v as u64).wrapping_sub(self.product as u64)
        } else {
            v as u64
        }
    }
}

impl Pow2Ring {
    /// Builds the ring context for degree `n` and modulus `2^l`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a supported transform size or `l` is outside
    /// `2..=62`.
    pub fn new(n: usize, l: u32) -> Self {
        assert!(
            (2..=62).contains(&l),
            "power-of-two modulus exponent {l} outside 2..=62"
        );
        let q = 1u64 << l;
        let primes = flash_math::prime::ntt_primes(LIMB_BITS, n as u64, 2);
        assert_eq!(primes.len(), 2, "no CRT helper primes for N = {n}");
        let limbs: Vec<Arc<NttTables>> = primes
            .iter()
            .map(|&p| NttTables::shared(n, p).expect("helper prime admits an NTT"))
            .collect();
        let lifts = [Barrett::new(primes[0]), Barrett::new(primes[1])];
        let garner = Garner2::new(primes[0], primes[1]);
        let crt = CrtBasis::new(primes);
        // N · (q/2) · max_small < P/2  ⇒  max_small < P / (N·q).
        let max_small = (crt.product() / (n as u128 * q as u128) / 2) as u64;
        assert!(max_small >= 1, "CRT range too small for N = {n}, q = 2^{l}");
        Self {
            q,
            mask: q - 1,
            limbs,
            crt,
            lifts,
            garner,
            max_small,
        }
    }

    /// The modulus `2^l`.
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The reduction mask `2^l − 1`.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The ring degree `N`.
    pub fn degree(&self) -> usize {
        self.limbs[0].degree()
    }

    /// Largest `‖b‖_∞` (after center lift) accepted by
    /// [`negacyclic_mul_small_into`](Self::negacyclic_mul_small_into).
    pub fn max_small_norm(&self) -> u64 {
        self.max_small
    }

    /// Exact negacyclic product `out = a · b mod (X^N + 1, 2^l)` where
    /// `b` is *small*: its center-lifted coefficients must satisfy
    /// `‖b‖_∞ ≤ max_small_norm()` (≈ `2^36` at `N = 4096`, `q = 2^62`)
    /// so the integer product fits the CRT range. Ternary secrets and
    /// encryption randomness always qualify.
    ///
    /// Cost: two full NTT products (both operands transformed) plus a
    /// general Garner recombination per call. For a small operand that
    /// is reused — a secret key — [`hoist_small`](Self::hoist_small) and
    /// [`mul_hoisted_batch_into`](Self::mul_hoisted_batch_into) skip its
    /// transforms and the general recombination.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch; debug-asserts the smallness bound and
    /// operand reduction.
    pub fn negacyclic_mul_small_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = self.degree();
        assert_eq!(out.len(), n, "output length mismatch");
        assert_eq!(a.len(), n, "operand length mismatch");
        assert_eq!(b.len(), n, "operand length mismatch");
        debug_assert!(
            b.iter()
                .all(|&x| center_lift(x & self.mask, self.q).unsigned_abs() <= self.max_small),
            "second operand too large for an exact CRT lift"
        );

        let mut la = U64_SCRATCH.take(n);
        let mut lb = U64_SCRATCH.take(n);
        let mut prod0 = U64_SCRATCH.take(n);
        let mut prod1 = U64_SCRATCH.take(n);
        for (limb, prod) in self.limbs.iter().zip([&mut prod0[..], &mut prod1[..]]) {
            let p = limb.modulus();
            for ((la, lb), (&ai, &bi)) in la.iter_mut().zip(lb.iter_mut()).zip(a.iter().zip(b)) {
                *la = from_signed(center_lift(ai & self.mask, self.q), p);
                *lb = from_signed(center_lift(bi & self.mask, self.q), p);
            }
            negacyclic_mul_ntt_into(prod, &la, &lb, limb);
        }
        for ((o, &r0), &r1) in out.iter_mut().zip(prod0.iter()).zip(prod1.iter()) {
            // i128 → u64 truncation is reduction mod 2^64; the mask
            // finishes the reduction mod 2^l.
            *o = (self.crt.reconstruct_centered(&[r0, r1]) as u64) & self.mask;
        }
    }

    /// Allocating convenience wrapper over
    /// [`negacyclic_mul_small_into`](Self::negacyclic_mul_small_into).
    pub fn negacyclic_mul_small(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.degree()];
        self.negacyclic_mul_small_into(&mut out, a, b);
        out
    }

    /// Center-lifts `a ∈ Z_{2^l}` into both limbs at once, division-free.
    #[inline(always)]
    fn lift_into(&self, l0: &mut [u64], l1: &mut [u64], a: &[u64]) {
        for ((x0, x1), &ai) in l0.iter_mut().zip(l1.iter_mut()).zip(a) {
            let c = center_lift(ai & self.mask, self.q);
            *x0 = self.lifts[0].from_signed(c);
            *x1 = self.lifts[1].from_signed(c);
        }
    }

    /// Hoists a *small* operand `b` (same contract as
    /// [`negacyclic_mul_small_into`](Self::negacyclic_mul_small_into)):
    /// its forward spectrum in each CRT limb, in Shoup form. Built once
    /// per operand; `2 · 16 · N` bytes.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch; debug-asserts the smallness bound.
    pub fn hoist_small(&self, b: &[u64]) -> Vec<ShoupSpectrum> {
        let n = self.degree();
        assert_eq!(b.len(), n, "operand length mismatch");
        debug_assert!(
            b.iter()
                .all(|&x| center_lift(x & self.mask, self.q).unsigned_abs() <= self.max_small),
            "operand too large for an exact CRT lift"
        );
        let mut l0 = vec![0u64; n];
        let mut l1 = vec![0u64; n];
        self.lift_into(&mut l0, &mut l1, b);
        vec![
            ShoupSpectrum::new(&l0, &self.limbs[0]),
            ShoupSpectrum::new(&l1, &self.limbs[1]),
        ]
    }

    /// Exact negacyclic products `out_k = a_k · b mod (X^N + 1, 2^l)` for
    /// a batch of operands `a_k` (one per `N`-chunk of `out`) against a
    /// small operand hoisted by [`hoist_small`](Self::hoist_small).
    ///
    /// Per limb: a division-free lift of the batch, one lane-parallel
    /// forward transform, a Shoup point-wise product, one inverse; then a
    /// two-limb Garner step per coefficient. Bit-identical to
    /// [`negacyclic_mul_small_into`](Self::negacyclic_mul_small_into)
    /// against the hoisted operand; allocates nothing at steady state.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of `N`, an operand's
    /// length differs from `N`, `a` does not yield exactly
    /// `out.len() / N` operands, or `b` is not a two-limb hoist.
    pub fn mul_hoisted_batch_into<'a>(
        &self,
        out: &mut [u64],
        a: impl IntoIterator<Item = &'a [u64]>,
        b: &[ShoupSpectrum],
    ) {
        let n = self.degree();
        assert_eq!(out.len() % n, 0, "output length must be a multiple of N");
        assert_eq!(b.len(), 2, "expected a two-limb hoisted operand");
        // Limb 0 lives in `out` itself, limb 1 in one scratch buffer; the
        // Garner step then recombines in place.
        let mut l1 = U64_SCRATCH.take(out.len());
        let mut a = a.into_iter();
        for (x0, x1) in out.chunks_exact_mut(n).zip(l1.chunks_exact_mut(n)) {
            let ak = a.next().expect("fewer operands than the output batch");
            assert_eq!(ak.len(), n, "operand length mismatch");
            self.lift_into(x0, x1, ak);
        }
        assert!(a.next().is_none(), "more operands than the output batch");
        negacyclic_mul_hoisted_batch_assign(out, &b[0], &self.limbs[0]);
        negacyclic_mul_hoisted_batch_assign(&mut l1, &b[1], &self.limbs[1]);
        for (o, &r1) in out.iter_mut().zip(l1.iter()) {
            *o = self.garner.centered_wrapping(*o, r1) & self.mask;
        }
    }
}

impl PartialEq for Pow2Ring {
    fn eq(&self, other: &Self) -> bool {
        self.q == other.q && self.degree() == other.degree()
    }
}

/// Checks that `q` is a modulus [`Pow2Ring`] supports.
pub fn supported_modulus(q: u64) -> bool {
    is_pow2_modulus(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_math::pow2::negacyclic_mul_wrapping;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state
    }

    #[test]
    fn matches_wrapping_schoolbook_for_ternary_operand() {
        let ring = Pow2Ring::new(64, 62);
        let q = ring.modulus();
        let mut s = 0xABCDu64;
        let a: Vec<u64> = (0..64).map(|_| lcg(&mut s) & (q - 1)).collect();
        let b: Vec<u64> = (0..64)
            .map(|_| match lcg(&mut s) % 3 {
                0 => 0,
                1 => 1,
                _ => q - 1, // −1 mod 2^62
            })
            .collect();
        assert_eq!(
            ring.negacyclic_mul_small(&a, &b),
            negacyclic_mul_wrapping(&a, &b, q)
        );
    }

    #[test]
    fn matches_wrapping_schoolbook_for_moderate_operand() {
        // Exercise the full advertised smallness range at a modest
        // degree, where max_small_norm is far above the weights the
        // scheme actually uses.
        let ring = Pow2Ring::new(32, 40);
        let q = ring.modulus();
        let bound = ring.max_small_norm().min(1 << 20);
        let mut s = 0x77u64;
        let a: Vec<u64> = (0..32).map(|_| lcg(&mut s) & (q - 1)).collect();
        let b: Vec<u64> = (0..32)
            .map(|_| {
                let v = (lcg(&mut s) % (2 * bound + 1)) as i64 - bound as i64;
                v.rem_euclid(q as i64) as u64
            })
            .collect();
        assert_eq!(
            ring.negacyclic_mul_small(&a, &b),
            negacyclic_mul_wrapping(&a, &b, q)
        );
    }

    #[test]
    fn hoisted_batch_matches_transforming_both_operands() {
        for (n, l) in [(8usize, 62u32), (64, 62), (64, 40), (256, 62)] {
            let ring = Pow2Ring::new(n, l);
            let q = ring.modulus();
            let mut s = 0x5EED ^ n as u64;
            let b: Vec<u64> = (0..n)
                .map(|_| match lcg(&mut s) % 3 {
                    0 => 0,
                    1 => 1,
                    _ => q - 1,
                })
                .collect();
            let hoisted = ring.hoist_small(&b);
            // Center-lift boundary values plus random residues.
            let mut a: Vec<u64> = vec![0, 1, q / 2, q / 2 + 1, q - 1];
            a.extend((0..3 * n - 5).map(|_| lcg(&mut s) & (q - 1)));
            let mut got = vec![0u64; a.len()];
            ring.mul_hoisted_batch_into(&mut got, a.chunks_exact(n), &hoisted);
            for (k, ak) in a.chunks_exact(n).enumerate() {
                assert_eq!(
                    &got[k * n..(k + 1) * n],
                    &ring.negacyclic_mul_small(ak, &b)[..],
                    "n={n} l={l} k={k}"
                );
            }
        }
    }

    #[test]
    fn two_limb_garner_matches_general_basis() {
        let ring = Pow2Ring::new(64, 62);
        let (p0, p1) = (ring.garner.p0, ring.garner.p1);
        let mut s = 0x6A7u64;
        let mut cases: Vec<(u64, u64)> = vec![(0, 0), (p0 - 1, p1 - 1), (0, p1 - 1), (p0 - 1, 0)];
        // The center-lift threshold ⌊P/2⌋ and its neighbours.
        let half = ring.garner.half;
        for v in [half - 1, half, half + 1] {
            cases.push(((v % p0 as u128) as u64, (v % p1 as u128) as u64));
        }
        cases.extend((0..2000).map(|_| (lcg(&mut s) % p0, lcg(&mut s) % p1)));
        for (r0, r1) in cases {
            assert_eq!(
                ring.garner.centered_wrapping(r0, r1),
                ring.crt.reconstruct_centered(&[r0, r1]) as u64,
                "residues ({r0}, {r1})"
            );
        }
    }

    #[test]
    fn smallness_bound_is_generous_for_keys() {
        let ring = Pow2Ring::new(4096, 62);
        // Ternary secrets need ‖b‖ ≤ 1; the exactness bound must leave
        // wide margin beyond that.
        assert!(ring.max_small_norm() > 1 << 20);
        assert_eq!(ring.degree(), 4096);
        assert_eq!(ring.modulus(), 1 << 62);
        assert_eq!(ring.mask(), (1 << 62) - 1);
    }

    #[test]
    #[should_panic(expected = "outside 2..=62")]
    fn rejects_full_word_modulus() {
        Pow2Ring::new(64, 63);
    }
}
