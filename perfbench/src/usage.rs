//! Process resource probes: CPU time of this process and its reaped
//! children (`getrusage`), and peak resident memory (`VmHWM`, which can be
//! reset between jobs, and the children's `ru_maxrss`, both read through
//! `fastmon_bench::rss`).
//!
//! The repository carries no `libc` dependency, so `getrusage` is declared
//! against the C ABI here. The layout is the 64-bit Linux `struct rusage`.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals, then 14 longs (`ru_maxrss` first) that
/// only the kernel touches here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the size and
    // layout the kernel fills for 64-bit Linux, and `who` is one of the two
    // documented selectors, so the call writes only inside the struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_secs(u: &Rusage) -> f64 {
    let t = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    t(&u.ru_utime) + t(&u.ru_stime)
}

/// User + system CPU seconds of this process (all threads).
pub fn self_cpu_s() -> f64 {
    cpu_secs(&rusage(RUSAGE_SELF))
}

/// User + system CPU seconds of every child this process has reaped.
pub fn children_cpu_s() -> f64 {
    cpu_secs(&rusage(RUSAGE_CHILDREN))
}

/// Largest peak RSS of any reaped child, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    fastmon_bench::rss::peak_rss_children_bytes().map_or(0.0, mib)
}

/// Resets this process's `VmHWM` to its current RSS, so the next
/// [`self_peak_rss_mb`] reads the peak since now (Linux `clear_refs`).
/// Free heap memory is handed back first, so memory an earlier job freed
/// but the allocator kept does not count towards the next job's peak.
pub fn reset_self_peak() {
    // SAFETY: `malloc_trim` only releases memory no allocation owns; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("[perfbench] cannot reset the peak RSS: {e}");
    }
}

/// This process's peak RSS (`VmHWM`) in MiB.
pub fn self_peak_rss_mb() -> f64 {
    fastmon_bench::rss::peak_rss_self_bytes().map_or(0.0, mib)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
