//! Every clock and resource-meter read of the benchmark.
//!
//! The workspace's `no-wall-clock` rule keeps wall-clock values out of
//! deterministic outputs. The benchmark measures time by design, so its
//! reads are gathered here, each with its justification, and the rest of
//! the benchmark handles opaque [`Tick`]s. No value read here reaches a
//! simulation input or a `SimReport`.

use std::time::Duration;

/// A point on the monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
// lint:allow(no-wall-clock) benchmark stopwatch; readings go to the result line only
pub struct Tick(std::time::Instant);

impl Tick {
    /// Reads the monotonic clock.
    pub fn now() -> Self {
        // lint:allow(no-wall-clock) benchmark stopwatch; readings go to the result line only
        Tick(std::time::Instant::now())
    }

    /// Seconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn secs_since(self, earlier: Tick) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }

    /// Milliseconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn ms_since(self, earlier: Tick) -> f64 {
        self.secs_since(earlier) * 1e3
    }

    /// Seconds elapsed since `self`.
    pub fn elapsed_s(self) -> f64 {
        Tick::now().secs_since(self)
    }

    /// The tick `secs` seconds after `self`.
    pub fn plus_secs(self, secs: f64) -> Tick {
        Tick(self.0 + Duration::from_secs_f64(secs))
    }
}

/// Sleeps until `due` (returns at once if it has passed).
pub fn sleep_until(due: Tick) {
    let now = Tick::now();
    if due > now {
        std::thread::sleep(due.0 - now.0);
    }
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in seconds, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    cpu::process_cpu_s()
}

#[allow(unsafe_code)]
mod cpu {
    //! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: the standard library has
    //! no CPU clock, and `/proc/self/stat` counts in 10 ms ticks, too coarse
    //! for the 2 880 sub-millisecond batches of the serving workload.

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("the benchmark reads Linux process clocks on 64-bit targets only");

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// Linux's clock id for the process CPU-time clock.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` of the 64-bit
        // Linux layout for the whole call, and the clock id is valid, so
        // the call writes only inside `ts`.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is always readable");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the `VmHWM` high-water mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after the call. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
