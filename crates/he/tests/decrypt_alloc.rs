//! Proof that secret-key decryption allocates only its result.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator. After a
//! warm-up pass fills the thread-local scratch pools, `decrypt` may
//! allocate exactly once per call — the returned polynomial's
//! coefficients — and `try_decrypt_batch` once per ciphertext plus the
//! result vector. The key's spectra are built at keygen, so no call
//! transforms or reallocates key material.
//!
//! The file holds a single `#[test]` on purpose: the counter is global,
//! and concurrent tests in the same binary would pollute it.

use flash_he::{HeParams, Poly, SecretKey};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many heap
/// allocations it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    f();
    ENABLED.store(false, Relaxed);
    ALLOCS.load(Relaxed)
}

#[test]
fn decrypt_allocates_only_its_result() {
    for p in [HeParams::pow2_test_256(), HeParams::test_256()] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let batch = 2 * flash_runtime::simd::lanes() + 1;
        let cts: Vec<_> = (0..batch).map(|_| sk.encrypt(&m, &mut rng)).collect();

        // Warm up twice: the first pass takes every pool miss, the second
        // proves the pools reached steady state.
        for _ in 0..2 {
            assert_eq!(sk.decrypt(&ct), m);
            assert!(sk.try_decrypt_batch(&cts).unwrap().iter().all(|d| *d == m));
        }

        let mut out = None;
        let single = count_allocs(|| out = Some(sk.decrypt(&ct)));
        assert_eq!(out.take(), Some(m.clone()));
        assert_eq!(
            single,
            1,
            "decrypt allocated {single} times (pow2: {})",
            p.is_pow2()
        );

        let mut outs = None;
        let batched = count_allocs(|| outs = Some(sk.try_decrypt_batch(&cts)));
        assert!(outs.unwrap().unwrap().iter().all(|d| *d == m));
        assert_eq!(
            batched,
            batch as u64 + 1,
            "try_decrypt_batch of {batch} allocated {batched} times (pow2: {})",
            p.is_pow2()
        );
    }

    // Sanity: the counter itself works.
    let observed = count_allocs(|| {
        let v = vec![0u8; 64];
        std::hint::black_box(&v);
    });
    assert!(observed >= 1, "counting allocator failed to observe a Vec");
}
