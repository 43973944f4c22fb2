//! Chinese-remainder recombination for residue number systems (RNS).
//!
//! Multi-limb ciphertext moduli `Q = q₀·q₁·…` let BFV support deeper
//! accumulations than a single 62-bit prime. Garner's algorithm
//! reconstructs values in mixed radix, needing only double-width
//! arithmetic; with ≤ 3 limbs of ≤ 42 bits every intermediate fits
//! `u128`/`i128`.

use crate::modular::{inv_mod, mul_mod, sub_mod};

/// Most limbs a [`CrtBasis`] holds: Garner's digits then live in a
/// fixed-size stack array, and every intermediate fits `u128`.
pub const MAX_LIMBS: usize = 3;

/// A CRT basis: pairwise-coprime moduli and the Garner precomputation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtBasis {
    moduli: Vec<u64>,
    /// `inv[j][i] = (q_i)^{-1} mod q_j` for `i < j` (Garner constants).
    inv: Vec<Vec<u64>>,
    /// The modulus product `Q`.
    product: u128,
    /// `⌊Q/2⌋`, the center-lift threshold.
    half: u128,
}

impl CrtBasis {
    /// Builds a basis from pairwise-coprime moduli.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one or more than [`MAX_LIMBS`] moduli are
    /// given, any modulus is < 2, the moduli are not pairwise coprime, or
    /// the product would overflow `u128` headroom for centered lifts
    /// (`Π q_i ≥ 2^126`).
    pub fn new(moduli: Vec<u64>) -> Self {
        assert!(!moduli.is_empty(), "need at least one modulus");
        assert!(
            moduli.len() <= MAX_LIMBS,
            "at most {MAX_LIMBS} limbs, got {}",
            moduli.len()
        );
        let mut prod: u128 = 1;
        for &q in &moduli {
            assert!(q >= 2, "modulus {q} too small");
            prod = prod
                .checked_mul(q as u128)
                .filter(|&p| p < (1u128 << 126))
                .expect("modulus product too large");
        }
        let k = moduli.len();
        let mut inv = vec![vec![0u64; k]; k];
        for j in 0..k {
            for i in 0..j {
                inv[j][i] = inv_mod(moduli[i] % moduli[j], moduli[j])
                    .expect("moduli must be pairwise coprime");
            }
        }
        Self {
            moduli,
            inv,
            product: prod,
            half: prod / 2,
        }
    }

    /// The moduli.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of limbs.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The modulus product `Q`.
    pub fn product(&self) -> u128 {
        self.product
    }

    /// Reduces an unsigned big value into residues.
    pub fn decompose_u128(&self, x: u128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|&q| (x % q as u128) as u64)
            .collect()
    }

    /// Reduces a signed value into residues.
    pub fn decompose_i128(&self, x: i128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|&q| x.rem_euclid(q as i128) as u64)
            .collect()
    }

    /// Garner reconstruction: residues → the unique value in `[0, Q)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn reconstruct(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        // mixed-radix digits: v = d0 + d1·q0 + d2·q0·q1 + ...
        let k = self.len();
        let mut digits = [0u64; MAX_LIMBS];
        for j in 0..k {
            let qj = self.moduli[j];
            // subtract the already-known digits, in Z_qj
            let mut acc = residues[j] % qj;
            let mut radix = 1u64 % qj;
            for (&di, &mi) in digits.iter().zip(&self.moduli).take(j) {
                let term = mul_mod(di % qj, radix, qj);
                acc = sub_mod(acc, term, qj);
                radix = mul_mod(radix, mi % qj, qj);
            }
            // divide by the radix (q0·…·q_{j-1}) mod qj
            let mut digit = acc;
            for i in 0..j {
                digit = mul_mod(digit, self.inv[j][i], qj);
            }
            digits[j] = digit;
        }
        let mut value: u128 = 0;
        let mut radix: u128 = 1;
        for (&d, &m) in digits[..k].iter().zip(&self.moduli) {
            value += d as u128 * radix;
            radix *= m as u128;
        }
        value
    }

    /// Reconstruction followed by a center lift into `(-Q/2, Q/2]`.
    pub fn reconstruct_centered(&self, residues: &[u64]) -> i128 {
        let v = self.reconstruct(residues);
        if v > self.half {
            v as i128 - self.product as i128
        } else {
            v as i128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_limb_roundtrip() {
        let b = CrtBasis::new(vec![97, 101]);
        for x in [0u128, 1, 96, 97, 5000, 97 * 101 - 1] {
            assert_eq!(b.reconstruct(&b.decompose_u128(x)), x);
        }
    }

    #[test]
    fn three_limb_large_primes() {
        let p1 = flash_prime(39, 4096, 0);
        let p2 = flash_prime(39, 4096, 1);
        let p3 = flash_prime(38, 4096, 0);
        let b = CrtBasis::new(vec![p1, p2, p3]);
        let q = b.product();
        for x in [0u128, 1, q / 3, q - 1, (1u128 << 100) % q] {
            assert_eq!(b.reconstruct(&b.decompose_u128(x)), x, "x = {x}");
        }
    }

    fn flash_prime(bits: u32, n: u64, skip: usize) -> u64 {
        crate::prime::ntt_primes(bits, n, skip + 1)[skip]
    }

    #[test]
    fn signed_decompose_and_center() {
        let b = CrtBasis::new(vec![97, 101]);
        for x in [-4000i128, -1, 0, 1, 4000] {
            let r = b.decompose_i128(x);
            assert_eq!(b.reconstruct_centered(&r), x);
        }
    }

    #[test]
    fn crt_is_ring_homomorphism() {
        let b = CrtBasis::new(vec![97, 101, 103]);
        let q = b.product();
        let (x, y) = (123_456u128, 789_012u128);
        let rx = b.decompose_u128(x);
        let ry = b.decompose_u128(y);
        let sum: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.moduli())
            .map(|((&a, &c), &m)| crate::modular::add_mod(a, c, m))
            .collect();
        assert_eq!(b.reconstruct(&sum), (x + y) % q);
        let prod: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.moduli())
            .map(|((&a, &c), &m)| mul_mod(a, c, m))
            .collect();
        assert_eq!(b.reconstruct(&prod), (x * y) % q);
    }

    #[test]
    #[should_panic(expected = "pairwise coprime")]
    fn rejects_non_coprime() {
        CrtBasis::new(vec![6, 10]);
    }

    #[test]
    #[should_panic(expected = "at most 3 limbs")]
    fn rejects_more_limbs_than_the_digit_array_holds() {
        CrtBasis::new(vec![97, 101, 103, 107]);
    }

    #[test]
    fn single_limb_degenerate() {
        let b = CrtBasis::new(vec![97]);
        assert_eq!(b.reconstruct(&[42]), 42);
        assert_eq!(b.product(), 97);
    }
}
