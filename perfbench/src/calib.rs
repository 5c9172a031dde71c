//! Host-speed calibration: a fixed mix of small kernels that belongs to
//! the benchmark, not to the program under test, so it runs the same on
//! every commit. Timed in thread CPU seconds (steal left out) beside
//! each repetition, it tells how fast the shared host executed code at
//! the time; `run.py` scales the measured times by it (see the README's
//! "Steadiness and bounds").

use crate::sys::thread_cpu_s;
use std::hint::black_box;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Branchy integer and floating-point arithmetic in registers.
fn compute() -> f64 {
    let start = thread_cpu_s();
    let mut state = 1u64;
    let mut acc = 0.0f64;
    for _ in 0..4_000_000 {
        let v = xorshift(&mut state);
        acc += ((v & 1023) as f64).sqrt() * 0.5;
        if v & 3 == 0 {
            acc *= 0.999;
        }
    }
    black_box(acc);
    thread_cpu_s() - start
}

/// Sorts `words` pseudo-random words in place: branchy compares over a
/// few MiB.
fn sort(memory: &mut [u64], words: usize) -> f64 {
    let mut state = 7u64;
    let slice = &mut memory[..words];
    for word in slice.iter_mut() {
        *word = xorshift(&mut state);
    }
    let start = thread_cpu_s();
    slice.sort_unstable();
    black_box(&slice);
    thread_cpu_s() - start
}

/// Random read-modify-write over the first `words` words.
fn table(memory: &mut [u64], words: usize, accesses: usize) -> f64 {
    let table = &mut memory[..words];
    let start = thread_cpu_s();
    let mut state = 88_172_645_463_325_252u64;
    for _ in 0..accesses {
        let v = xorshift(&mut state);
        let i = (v % words as u64) as usize;
        table[i] = table[i].wrapping_add(v);
    }
    black_box(&table);
    thread_cpu_s() - start
}

/// The geometric mean of the kernels' seconds on this thread. Their
/// memory is mapped for the call and unmapped after it, past the
/// allocator, so calibrating changes neither the program's heap nor the
/// peak RSS of a later repetition.
fn kernels() -> f64 {
    let mut pages = crate::sys::Pages::new(32 << 20);
    let memory = pages.words();
    memory.fill(1);
    let times = [
        compute(),
        sort(memory, 1 << 18),
        table(memory, 1 << 20, 1 << 20),
        table(memory, 1 << 22, 1 << 20),
    ];
    (times.iter().map(|t| t.ln()).sum::<f64>() / times.len() as f64).exp()
}

/// One calibration sample, about 60 ms: the kernels run on `threads`
/// threads at once, one per thread the workload runs on, so every core
/// the workload uses is sampled; the mean of the threads' figures.
#[must_use]
pub fn sample(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(kernels)).collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_on_one_and_two_threads() {
        for threads in [1, 2] {
            let s = sample(threads);
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
    }

    #[test]
    fn mapped_pages_are_zeroed_and_writable() {
        let mut pages = crate::sys::Pages::new(1 << 16);
        let words = pages.words();
        assert_eq!(words.len(), 1 << 13);
        assert!(words.iter().all(|&w| w == 0));
        words.fill(u64::MAX);
        assert!(words.iter().all(|&w| w == u64::MAX));
    }
}
