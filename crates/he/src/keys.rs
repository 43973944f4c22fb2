//! Secret keys, encryption and decryption.
//!
//! Symmetric-key BFV suffices for the hybrid protocol (the client both
//! encrypts and decrypts): `ct = (c0, c1)` with `c1 = a` uniform and
//! `c0 = −a·s + Δ·m + e`, so `c0 + c1·s = Δ·m + e`.

use crate::cipher::Ciphertext;
use crate::params::HeParams;
use crate::poly::Poly;
use flash_math::modular::{add_mod, sub_mod};
use flash_ntt::polymul::ShoupSpectrum;
use flash_runtime::U64_SCRATCH;
use rand::Rng;

/// A BFV secret key (ternary).
///
/// The key is kept only as its forward-NTT spectra, one per exact limb
/// of the ring, in Shoup form ([`HeParams::hoist_key`]): every product
/// with `s` — encryption's `a·s`, decryption's `c1·s` — then transforms
/// only the other operand. `16·N` bytes per limb (128 KB at `N = 4096`
/// on a power-of-two ring).
#[derive(Debug, Clone)]
pub struct SecretKey {
    params: HeParams,
    spectra: Vec<ShoupSpectrum>,
}

/// A BFV public key: an encryption of zero `(p0, p1) = (−a·s + e, a)`.
///
/// The hybrid protocol itself only needs symmetric encryption (the
/// client encrypts and decrypts), but a public key lets third parties
/// contribute ciphertexts.
#[derive(Debug, Clone)]
pub struct PublicKey {
    params: HeParams,
    p0: Poly,
    p1: Poly,
}

impl PublicKey {
    /// The parameter set this key belongs to.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// Encrypts a plaintext with the public key:
    /// `ct = (p0·u + e1 + Δ·m, p1·u + e2)` with ternary `u`.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext modulus or length mismatches.
    pub fn encrypt<R: Rng>(&self, m: &Poly, rng: &mut R) -> Ciphertext {
        let p = &self.params;
        assert_eq!(m.modulus(), p.t, "plaintext must be mod t");
        assert_eq!(m.len(), p.n, "plaintext length must be N");
        let u = Poly::ternary(p.n, p.q, rng);
        let e1 = Poly::gaussian(p.n, p.q, p.noise_std, rng);
        let e2 = Poly::gaussian(p.n, p.q, p.noise_std, rng);
        let scaled_m = m.lift_to(p.q).scale(p.delta());
        let c0 = Poly::from_coeffs(p.key_mul(self.p0.coeffs(), u.coeffs()), p.q)
            .add(&e1)
            .add(&scaled_m);
        let c1 = Poly::from_coeffs(p.key_mul(self.p1.coeffs(), u.coeffs()), p.q).add(&e2);
        Ciphertext::new(c0, c1)
    }
}

impl SecretKey {
    /// Samples a fresh ternary secret key.
    pub fn generate<R: Rng>(params: &HeParams, rng: &mut R) -> Self {
        Self::from_ternary(params, &Poly::ternary(params.n, params.q, rng))
    }

    /// Builds the key for a given ternary secret `s` (coefficients `0`,
    /// `1` or `q − 1`), hoisting its spectra.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a ternary polynomial of degree `N` mod `q`.
    pub fn from_ternary(params: &HeParams, s: &Poly) -> Self {
        assert_eq!(s.modulus(), params.q, "secret must be mod q");
        assert_eq!(s.len(), params.n, "secret length must be N");
        assert!(
            s.coeffs().iter().all(|&c| c <= 1 || c == params.q - 1),
            "secret must be ternary"
        );
        Self {
            params: params.clone(),
            spectra: params.hoist_key(s.coeffs()),
        }
    }

    /// The parameter set this key belongs to.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// Derives the matching public key (an encryption of zero).
    pub fn public_key<R: Rng>(&self, rng: &mut R) -> PublicKey {
        let p = &self.params;
        let a = Poly::uniform(p.n, p.q, rng);
        let e = Poly::gaussian(p.n, p.q, p.noise_std, rng);
        let mut a_s = U64_SCRATCH.take(p.n);
        p.key_mul_hoisted_batch_into(&mut a_s, [a.coeffs()], &self.spectra);
        let p0 = e
            .coeffs()
            .iter()
            .zip(a_s.iter())
            .map(|(&e, &x)| sub_mod(e, x, p.q))
            .collect();
        PublicKey {
            params: p.clone(),
            p0: Poly::from_coeffs(p0, p.q),
            p1: a,
        }
    }

    /// Encrypts a plaintext polynomial (`mod t`).
    ///
    /// # Panics
    ///
    /// Panics if the plaintext modulus or length does not match the
    /// parameters.
    pub fn encrypt<R: Rng>(&self, m: &Poly, rng: &mut R) -> Ciphertext {
        let p = &self.params;
        assert_eq!(m.modulus(), p.t, "plaintext must be mod t");
        assert_eq!(m.len(), p.n, "plaintext length must be N");
        let a = Poly::uniform(p.n, p.q, rng);
        let e = Poly::gaussian(p.n, p.q, p.noise_std, rng);
        let scaled_m = m.lift_to(p.q).scale(p.delta());
        let mut a_s = U64_SCRATCH.take(p.n);
        p.key_mul_hoisted_batch_into(&mut a_s, [a.coeffs()], &self.spectra);
        let c0 = scaled_m
            .coeffs()
            .iter()
            .zip(e.coeffs())
            .zip(a_s.iter())
            .map(|((&m, &e), &x)| sub_mod(add_mod(m, e, p.q), x, p.q))
            .collect();
        Ciphertext::new(Poly::from_coeffs(c0, p.q), a)
    }

    /// The phases `c0 + c1·s` (mod `q`) of a batch, one per `N`-chunk of
    /// `out`.
    fn phases_into(&self, out: &mut [u64], cts: &[Ciphertext]) {
        let q = self.params.q;
        self.params.key_mul_hoisted_batch_into(
            out,
            cts.iter().map(|ct| ct.c1().coeffs()),
            &self.spectra,
        );
        for (chunk, ct) in out.chunks_exact_mut(self.params.n).zip(cts) {
            for (x, &c0) in chunk.iter_mut().zip(ct.c0().coeffs()) {
                *x = add_mod(c0, *x, q);
            }
        }
    }

    /// The raw decryption phase `c0 + c1·s` (mod `q`). Allocates only
    /// the returned polynomial.
    pub fn phase(&self, ct: &Ciphertext) -> Poly {
        let mut out = vec![0u64; self.params.n];
        self.phases_into(&mut out, std::slice::from_ref(ct));
        Poly::from_coeffs(out, self.params.q)
    }

    /// Decryption for wire-derived ciphertexts: validates the ciphertext
    /// against this key's parameter set before running [`decrypt`]
    /// (`SecretKey::decrypt`), so malformed peer data surfaces as a typed
    /// error instead of a panic deep in the NTT.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::HeError`] on a degree or modulus mismatch.
    pub fn try_decrypt(&self, ct: &Ciphertext) -> Result<Poly, crate::error::HeError> {
        ct.validate_for(&self.params)?;
        Ok(self.decrypt(ct))
    }

    /// Decrypts a batch of wire-derived ciphertexts, validating every one
    /// first (as [`try_decrypt`](SecretKey::try_decrypt) does). Blocks of
    /// `flash_runtime::simd::lanes()` ciphertexts share each lane-parallel
    /// transform; the plaintexts are bit-identical to per-ciphertext
    /// [`decrypt`](SecretKey::decrypt), which is this path at a batch of
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::HeError`] on the first degree or modulus
    /// mismatch; nothing is decrypted then.
    pub fn try_decrypt_batch(
        &self,
        cts: &[Ciphertext],
    ) -> Result<Vec<Poly>, crate::error::HeError> {
        for ct in cts {
            ct.validate_for(&self.params)?;
        }
        let mut out = Vec::with_capacity(cts.len());
        self.decrypt_each(cts, |m| out.push(m));
        Ok(out)
    }

    /// Decrypts a ciphertext: `round(t/q · (c0 + c1·s)) mod t`.
    ///
    /// Allocates only the returned polynomial.
    pub fn decrypt(&self, ct: &Ciphertext) -> Poly {
        let mut out = None;
        self.decrypt_each(std::slice::from_ref(ct), |m| out = Some(m));
        out.expect("one ciphertext in, one plaintext out")
    }

    /// The decryption path: phases for blocks of `simd::lanes()`
    /// ciphertexts in pooled scratch, then one rounded plaintext per
    /// ciphertext, handed to `emit` in order.
    fn decrypt_each(&self, cts: &[Ciphertext], mut emit: impl FnMut(Poly)) {
        let p = &self.params;
        for block in cts.chunks(flash_runtime::simd::lanes()) {
            let mut phases = U64_SCRATCH.take(block.len() * p.n);
            self.phases_into(&mut phases, block);
            for phase in phases.chunks_exact(p.n) {
                emit(Poly::from_coeffs(round_to_plaintext(phase, p), p.t));
            }
        }
    }

    /// Exact residual noise of a ciphertext that should decrypt to `m`:
    /// center-lifted `c0 + c1·s − Δ·m`.
    pub fn noise(&self, ct: &Ciphertext, m: &Poly) -> Poly {
        let p = &self.params;
        let expected = m.lift_to(p.q).scale(p.delta());
        self.phase(ct).sub(&expected)
    }

    /// Remaining noise budget in bits: `log2(noise ceiling) −
    /// log2(‖noise‖_∞)`. Negative means decryption failure is possible.
    pub fn noise_budget_bits(&self, ct: &Ciphertext, m: &Poly) -> f64 {
        let noise = self.noise(ct, m).inf_norm().max(1);
        (self.params.noise_ceiling() as f64).log2() - (noise as f64).log2()
    }
}

/// `round(t·c/q) mod t` per phase coefficient `c ∈ [0, q)`.
///
/// With `q = 2^l` and `t = 2^k`, `Δ = q/t` is exact and the rounding is
/// `⌊(c + Δ/2) / Δ⌋ mod t` — a shift and a mask, the same value as the
/// `u128` division the prime ring needs.
fn round_to_plaintext(phase: &[u64], p: &HeParams) -> Vec<u64> {
    if p.is_pow2() {
        let delta = p.delta();
        let (shift, half, mask) = (delta.trailing_zeros(), delta / 2, p.t - 1);
        phase
            .iter()
            .map(|&c| ((c + half) >> shift) & mask)
            .collect()
    } else {
        phase
            .iter()
            .map(|&c| {
                let num = c as u128 * p.t as u128 + p.q as u128 / 2;
                ((num / p.q as u128) % p.t as u128) as u64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&p, &mut rng);
        for seed in 0..5u64 {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Poly::uniform(p.n, p.t, &mut mrng);
            let ct = sk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct), m);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_pow2_ring() {
        // The whole key path — ternary sampling, a·s through the hoisted
        // key spectra, p·u through the per-call CRT lift, Δ·m scaling,
        // shift rounding — on q = 2^62.
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        for seed in 0..3u64 {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Poly::uniform(p.n, p.t, &mut mrng);
            let ct = sk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct), m);
            assert!(sk.noise(&ct, &m).inf_norm() < 40);
            // The 2^62 modulus leaves a vast budget vs the 36-bit prime.
            assert!(sk.noise_budget_bits(&ct, &m) > 30.0);
            let ct_pk = pk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct_pk), m);
        }
    }

    #[test]
    fn fresh_noise_is_small() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let noise = sk.noise(&ct, &m);
        assert!(noise.inf_norm() < 40, "fresh noise should be a few sigma");
        assert!(sk.noise_budget_bits(&ct, &m) > 10.0);
    }

    #[test]
    fn decryption_robust_to_injected_error_below_ceiling() {
        // Kernel-level robustness: adding error below q/(2t) to c0 leaves
        // decryption unchanged — the foundation of FLASH's approximation.
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let headroom = (p.noise_ceiling() / 2) as i64;
        let inject = Poly::from_signed(&vec![headroom; p.n], p.q);
        let noisy = Ciphertext::new(ct.c0().add(&inject), ct.c1().clone());
        assert_eq!(sk.decrypt(&noisy), m);
    }

    #[test]
    fn public_key_encryption_roundtrip() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = pk.encrypt(&m, &mut rng);
        assert_eq!(sk.decrypt(&ct), m);
        // pk encryption carries more noise than symmetric (u·e terms) but
        // stays comfortably within budget.
        let budget = sk.noise_budget_bits(&ct, &m);
        assert!(budget > 3.0, "pk budget {budget}");
        let sym = sk.encrypt(&m, &mut rng);
        assert!(sk.noise(&ct, &m).inf_norm() >= sk.noise(&sym, &m).inf_norm());
    }

    #[test]
    fn public_key_ciphertexts_compose_homomorphically() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        let m1 = Poly::uniform(p.n, p.t, &mut rng);
        let m2 = Poly::uniform(p.n, p.t, &mut rng);
        let ct = pk.encrypt(&m1, &mut rng).add_ct(&sk.encrypt(&m2, &mut rng));
        assert_eq!(sk.decrypt(&ct), m1.add(&m2));
    }

    #[test]
    fn decryption_fails_above_ceiling() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::zero(p.n, p.t);
        let ct = sk.encrypt(&m, &mut rng);
        let too_much = (p.noise_ceiling() + p.noise_ceiling() / 2) as i64;
        let inject = Poly::from_signed(&vec![too_much; p.n], p.q);
        let noisy = Ciphertext::new(ct.c0().add(&inject), ct.c1().clone());
        assert_ne!(sk.decrypt(&noisy), m);
    }
}
