//! Pins threads to CPUs (Linux `sched_setaffinity`), so a run's threads
//! do not migrate between CPUs or share one.

use std::os::raw::{c_int, c_ulong};

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// Mask words: room for 1024 CPUs.
const WORDS: usize = 16;
const BITS: usize = c_ulong::BITS as usize;

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0 as c_ulong; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * BITS)
        .filter(|&cpu| mask[cpu / BITS] & (1 << (cpu % BITS)) != 0)
        .collect()
}

/// Pins the calling thread, and the threads it spawns afterwards, to
/// `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= WORDS * BITS {
        return false;
    }
    let mut mask = [0 as c_ulong; WORDS];
    mask[cpu / BITS] = 1 << (cpu % BITS);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_an_allowed_cpu_and_back() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            let last = *cpus.last().expect("non-empty");
            assert!(pin_current_thread(last));
            assert_eq!(allowed_cpus(), vec![last]);
        })
        .join()
        .expect("pinning thread");
    }
}
