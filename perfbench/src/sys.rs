//! Process measurements the standard library does not expose: CPU time
//! (`getrusage`, `CLOCK_THREAD_CPUTIME_ID`), resetting the peak resident
//! set size (`VmHWM`), the time the hypervisor kept the virtual CPUs from
//! running (steal); and anonymous memory mapped past the allocator.

use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by fourteen
/// `long` counters.
#[repr(C)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    counters: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct TimeSpec {
    secs: i64,
    nanos: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, time: *mut TimeSpec) -> i32;
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU time of the whole process so far, every thread
/// included (also threads that have already exited).
#[must_use]
pub fn process_cpu() -> Duration {
    let mut usage = RUsage { utime_s: 0, utime_us: 0, stime_s: 0, stime_us: 0, counters: [0; 14] };
    // SAFETY: `usage` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux, which is all getrusage writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let micros = (usage.utime_s + usage.stime_s) * 1_000_000 + usage.utime_us + usage.stime_us;
    Duration::from_micros(u64::try_from(micros).expect("CPU time is non-negative"))
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run so far.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    let mut time = TimeSpec { secs: 0, nanos: 0 };
    // SAFETY: `time` is a live, writable value with the C layout of
    // `struct timespec` on 64-bit Linux, which is all clock_gettime writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "the calling thread's CPU clock always exists");
    time.secs as f64 + time.nanos as f64 * 1e-9
}

/// Resets this process's peak resident set size to its current size
/// (`/proc/self/clear_refs`, Linux 4.0 and later), so the next
/// `facs_bench::experiments::peak_rss_bytes` covers only what ran since.
/// Returns `false` where the kernel does not allow it; the peak then
/// stays process-wide.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Seconds the hypervisor has kept this machine's virtual CPUs from
/// running since boot, summed over the CPUs: the `steal` column of
/// `/proc/stat`, in `USER_HZ` (1/100 s) ticks. 0 where it is not
/// accounted.
#[must_use]
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|total| total.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

/// Zeroed anonymous memory from `mmap`, returned to the kernel on drop.
pub struct Pages {
    base: *mut u8,
    len: usize,
}

impl Pages {
    /// Maps `len` bytes, a multiple of 8.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0 && len.is_multiple_of(8), "a whole number of words");
        // SAFETY: a fresh private anonymous mapping; no existing memory
        // is named or touched.
        let base = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        assert!(base as isize != -1, "mmap of {len} bytes failed");
        Self { base, len }
    }

    /// The mapping as words.
    pub fn words(&mut self) -> &mut [u64] {
        // SAFETY: the mapping is `len` readable and writable bytes,
        // page-aligned, zero-filled (a valid u64 pattern), and borrowed
        // mutably for no longer than `self`.
        unsafe { std::slice::from_raw_parts_mut(self.base.cast::<u64>(), self.len / 8) }
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` are exactly the mapping made in `new`,
        // unmapped once, and no borrow of it outlives `self`.
        let rc = unsafe { munmap(self.base, self.len) };
        assert_eq!(rc, 0, "munmap of a mapping this value owns");
    }
}
