//! Measurements shared by every workload: process memory, the runtime's
//! cache and pool counters, per-call HE costs and the cold start that
//! makes each set-up repetition pay for its own plan caches.

use flash_he::{serialize, HeParams, Poly, SecretKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM`
/// line: the benchmark runs on Linux only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Drops every shared transform-plan cache, so the next set-up
/// repetition builds its plans as a fresh process would.
pub fn clear_plan_caches() {
    flash_ntt::NttTables::clear_shared_cache();
    flash_fft::NegacyclicFft::clear_shared_cache();
    flash_fft::fixed_fft::FixedNegacyclicFft::clear_shared_cache();
    flash_sparse::plan::clear_plan_cache();
}

/// Cumulative scratch-pool and plan-cache counters of the process.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeCounters {
    pool_hits: u64,
    pool_misses: u64,
    cache_misses: u64,
}

impl RuntimeCounters {
    pub fn now() -> Self {
        let s = flash_telemetry::snapshot();
        RuntimeCounters {
            pool_hits: s.pools.iter().map(|p| p.hits).sum(),
            pool_misses: s.pools.iter().map(|p| p.misses).sum(),
            cache_misses: s.caches.iter().map(|c| c.misses).sum(),
        }
    }

    /// `(pool hit rate, plan-cache misses)` between `earlier` and `self`.
    pub fn since(&self, earlier: &RuntimeCounters) -> (f64, f64) {
        let hits = self.pool_hits - earlier.pool_hits;
        let misses = self.pool_misses - earlier.pool_misses;
        let rate = if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        (rate, (self.cache_misses - earlier.cache_misses) as f64)
    }
}

/// Median per-call microseconds of `[encrypt, decrypt, serialize,
/// deserialize]` of one ciphertext at `params`.
pub fn he_call_us(params: &HeParams, seed: u64) -> [f64; 4] {
    const CALLS: usize = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(params, &mut rng);
    let half = (params.t / 2) as i64;
    let coeffs: Vec<i64> = (0..params.n).map(|_| rng.gen_range(-half..half)).collect();
    let m = Poly::from_signed(&coeffs, params.t);
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..CALLS {
        let t = Instant::now();
        let ct = black_box(sk.encrypt(black_box(&m), &mut rng));
        samples[0].push(us(t));
        let t = Instant::now();
        let back = black_box(sk.decrypt(black_box(&ct)));
        samples[1].push(us(t));
        assert_eq!(back, m, "encrypt/decrypt round trip");
        let t = Instant::now();
        let bytes = black_box(serialize::ciphertext_to_bytes(black_box(&ct)));
        samples[2].push(us(t));
        let t = Instant::now();
        let parsed = black_box(serialize::ciphertext_from_bytes(
            black_box(&bytes),
            params.n,
            params.q,
        ));
        samples[3].push(us(t));
        assert!(parsed.is_ok_and(|p| p == ct), "serialize round trip");
    }
    samples.map(|s| crate::stats::median(&s))
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A stream-splitting mix of the workload seed with a salt and an index.
pub fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
