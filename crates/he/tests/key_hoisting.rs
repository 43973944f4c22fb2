//! Bit-identity of the hoisted secret-key path.
//!
//! `SecretKey` keeps only the forward spectra of `s` and decrypts in
//! lane-wide batches. These properties pin that path, on both ring
//! families at N ∈ {8, 64, 256}, to the references it replaced and to
//! schoolbook products:
//!
//! * `phase` equals `c0 + key_mul(c1, s)` (both operands transformed,
//!   general CRT recombination on `2^l`) and the `O(N²)` schoolbook, for
//!   random and honest ciphertexts and for `c1` carrying the center-lift
//!   boundary values `0, 1, q/2, q/2 + 1, q − 1`;
//! * `try_decrypt_batch` equals per-ciphertext `decrypt` for every batch
//!   length from 1 to `2·lanes + 1`, ragged tails included;
//! * the power-of-two shift rounding equals the `u128` formula
//!   `⌊(c·t + q/2) / q⌋ mod t` at every phase `k·Δ ± Δ/2 ± 1`.

use flash_he::{Ciphertext, HeParams, Poly, SecretKey};
use flash_math::modular::add_mod;
use flash_math::pow2::negacyclic_mul_wrapping;
use flash_ntt::polymul::negacyclic_mul_naive;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Both ring families at each tested degree.
fn param_sets() -> Vec<HeParams> {
    let mut sets = Vec::new();
    for (n, t) in [(8usize, 1u64 << 8), (64, 1 << 12), (256, 1 << 16)] {
        sets.push(HeParams::new(n, 36, t, 3.2));
        sets.push(HeParams::new_pow2(n, 62, t, 3.2));
    }
    sets
}

/// The schoolbook `c1·s` for the ring's family.
fn schoolbook(p: &HeParams, c1: &[u64], s: &[u64]) -> Vec<u64> {
    if p.is_pow2() {
        negacyclic_mul_wrapping(c1, s, p.q)
    } else {
        negacyclic_mul_naive(c1, s, p.q)
    }
}

/// A uniformly random ciphertext whose `c1` starts with the center-lift
/// boundary values.
fn boundary_ciphertext<R: Rng>(p: &HeParams, rng: &mut R) -> Ciphertext {
    let c0 = Poly::uniform(p.n, p.q, rng);
    let mut c1: Vec<u64> = (0..p.n).map(|_| rng.gen_range(0..p.q)).collect();
    let edges = [0, 1, p.q / 2, p.q / 2 + 1, p.q - 1];
    c1[..edges.len()].copy_from_slice(&edges);
    Ciphertext::new(c0, Poly::from_coeffs(c1, p.q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hoisted_phase_matches_reference_and_schoolbook(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for p in param_sets() {
            let s = Poly::ternary(p.n, p.q, &mut rng);
            let sk = SecretKey::from_ternary(&p, &s);
            let m = Poly::uniform(p.n, p.t, &mut rng);
            let cts = [boundary_ciphertext(&p, &mut rng), sk.encrypt(&m, &mut rng)];
            for ct in &cts {
                let reference: Vec<u64> = ct
                    .c0()
                    .coeffs()
                    .iter()
                    .zip(p.key_mul(ct.c1().coeffs(), s.coeffs()))
                    .map(|(&c0, x)| add_mod(c0, x, p.q))
                    .collect();
                let school: Vec<u64> = ct
                    .c0()
                    .coeffs()
                    .iter()
                    .zip(schoolbook(&p, ct.c1().coeffs(), s.coeffs()))
                    .map(|(&c0, x)| add_mod(c0, x, p.q))
                    .collect();
                let phase = sk.phase(ct);
                prop_assert_eq!(phase.coeffs(), &reference[..], "{:?}", p);
                prop_assert_eq!(phase.coeffs(), &school[..], "{:?}", p);
            }
            prop_assert_eq!(sk.decrypt(&cts[1]), m);
        }
    }

    #[test]
    fn batched_decrypt_matches_per_ciphertext(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let max = 2 * flash_runtime::simd::lanes() + 1;
        for p in param_sets() {
            let sk = SecretKey::generate(&p, &mut rng);
            // Half honest, half random: the plaintexts differ per slot.
            let cts: Vec<Ciphertext> = (0..max)
                .map(|i| {
                    if i % 2 == 0 {
                        sk.encrypt(&Poly::uniform(p.n, p.t, &mut rng), &mut rng)
                    } else {
                        boundary_ciphertext(&p, &mut rng)
                    }
                })
                .collect();
            let single: Vec<Poly> = cts.iter().map(|ct| sk.decrypt(ct)).collect();
            for len in 1..=max {
                let batch = sk.try_decrypt_batch(&cts[..len]).unwrap();
                prop_assert_eq!(&batch[..], &single[..len], "{:?} len={}", p, len);
            }
        }
    }
}

#[test]
fn pow2_shift_rounding_matches_u128_formula() {
    for p in param_sets().into_iter().filter(HeParams::is_pow2) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(p.n as u64);
        let sk = SecretKey::generate(&p, &mut rng);
        let delta = p.delta();
        let offsets = [
            -(delta as i128) / 2 - 1,
            -(delta as i128) / 2,
            -(delta as i128) / 2 + 1,
            -1,
            0,
            1,
            delta as i128 / 2 - 1,
            delta as i128 / 2,
            delta as i128 / 2 + 1,
        ];
        let mut ks: Vec<u64> = vec![0, 1, p.t / 2 - 1, p.t / 2, p.t / 2 + 1, p.t - 1];
        ks.extend((0..64).map(|_| rng.gen_range(0..p.t)));
        let phases: Vec<u64> = ks
            .iter()
            .flat_map(|&k| {
                offsets.iter().map(move |&off| {
                    (k as i128 * delta as i128 + off).rem_euclid(p.q as i128) as u64
                })
            })
            .collect();
        // `c1 = 0` makes the phase `c0` itself.
        for chunk in phases.chunks(p.n) {
            let mut c0 = chunk.to_vec();
            c0.resize(p.n, 0);
            let want: Vec<u64> = c0
                .iter()
                .map(|&c| {
                    let num = c as u128 * p.t as u128 + p.q as u128 / 2;
                    ((num / p.q as u128) % p.t as u128) as u64
                })
                .collect();
            let ct = Ciphertext::new(Poly::from_coeffs(c0, p.q), Poly::zero(p.n, p.q));
            assert_eq!(sk.decrypt(&ct).coeffs(), &want[..], "{p:?}");
        }
    }
}

#[test]
#[should_panic(expected = "ternary")]
fn from_ternary_rejects_a_non_ternary_secret() {
    let p = HeParams::toy();
    let mut s = vec![0u64; p.n];
    s[3] = 2;
    SecretKey::from_ternary(&p, &Poly::from_coeffs(s, p.q));
}
