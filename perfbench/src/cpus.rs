//! Where a one-thread workload runs.
//!
//! On a shared host the CPUs of one machine do not run at one speed (another
//! tenant on a sibling hyperthread, interrupt load), and the OS tends to
//! leave a one-thread run on one CPU for its whole length, so the run would
//! read the speed of whichever CPU it landed on. The harness instead spreads
//! a one-thread workload's repetitions over every CPU the process may use,
//! in contiguous blocks, and reports the mean of the per-CPU medians
//! ([`typical`]).

use std::collections::BTreeMap;

use crate::harness::{median, ratio};

/// The CPUs repetitions rotate over, by slot; empty leaves placement to the
/// OS.
#[derive(Debug, Clone)]
pub struct Cpus(Vec<usize>);

impl Cpus {
    /// Every CPU this process may run on.
    pub fn each() -> Self {
        Self(sys::allowed())
    }

    /// How many slots repetitions rotate over.
    pub fn slots(&self) -> usize {
        self.0.len().max(1)
    }

    /// Moves the calling thread onto the CPU of `slot`.
    pub fn pin(&self, slot: usize) {
        if self.0.len() > 1 {
            sys::set(&[self.0[slot % self.0.len()]]);
        }
    }

    /// Lets the calling thread run on every CPU it could before.
    pub fn release(&self) {
        if self.0.len() > 1 {
            sys::set(&self.0);
        }
    }
}

/// The mean over slots of the median of each slot's samples: a one-thread
/// figure that no single CPU's speed decides.
pub fn typical(samples: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut by_slot: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (slot, v) in samples {
        by_slot.entry(slot).or_default().push(v);
    }
    ratio(by_slot.values().map(|v| median(v)).sum(), by_slot.len() as f64)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// glibc's `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The CPUs the calling thread may run on; empty if the mask is unreadable.
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Restricts the calling thread to `cpus`. Best effort: if the kernel
    /// refuses, the thread stays where it may run and the figures are still
    /// host time, only less evenly spread.
    pub fn set(cpus: &[usize]) {
        let mut set: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            set[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a readable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_averages_the_per_slot_medians() {
        let samples = [(0, 1.0), (0, 3.0), (0, 2.0), (1, 10.0), (1, 12.0)];
        assert_eq!(typical(samples), (2.0 + 11.0) / 2.0);
        assert_eq!(typical([(0, 4.0)]), 4.0);
        assert_eq!(typical([]), 0.0);
    }

    #[test]
    fn pin_moves_the_thread_and_release_restores_it() {
        let before = sys::allowed();
        let cpus = Cpus::each();
        if cpus.slots() > 1 {
            cpus.pin(1);
            assert_eq!(sys::allowed(), vec![before[1]]);
        }
        cpus.release();
        assert_eq!(sys::allowed(), before);
    }
}
