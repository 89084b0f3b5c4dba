//! The benchmark's host-clock reads.
//!
//! Every wall-clock timing in the benchmark goes through [`now`], so the workspace
//! lint sees a single, justified wall-clock site instead of one per
//! measurement. CPU-clock reads ([`thread_cpu_s`], [`process_cpu_s`],
//! [`pid_cpu_s`]) call `clock_gettime` directly, the crate's only
//! unsafe code.

#![allow(unsafe_code)]

use std::time::{Duration, Instant};

/// The current host time.
pub fn now() -> Instant {
    // mppm-lint: allow(wallclock-in-sim, taint-nondet-to-result): the benchmark measures host time; readings feed its metrics and span log, never simulated time or the results it checks
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(now());
    if left > Duration::ZERO {
        std::thread::sleep(left);
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the call writes
    // nothing else and reports an unknown clock as an error.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the calling thread has run.
///
/// CPU time leaves out the time the thread waited for a processor —
/// other processes, or the hypervisor running another guest on this
/// guest's CPU (steal time) — which on a shared host is most of the
/// run-to-run noise of a wall-clock reading.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0.0)
}

/// CPU seconds this process has run, over all its threads, exited ones
/// included.
pub fn process_cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).unwrap_or(0.0)
}

/// CPU seconds process `pid` has run, over all its threads, exited ones
/// included (`None` once it has been reaped).
pub fn pid_cpu_s(pid: u32) -> Option<f64> {
    let pid = i32::try_from(pid).ok()?;
    let mut clock = 0;
    // SAFETY: `clock` is a valid, writable `clockid_t`.
    let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if rc != 0 {
        return None;
    }
    read_clock(clock)
}

/// Runs `f` and returns its result with the CPU seconds this process
/// spent meanwhile (all threads).
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = process_cpu_s();
    let out = f();
    (out, process_cpu_s() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let spin = || (0..20_000_000u64).fold(0u64, |a, x| a.wrapping_add(x * x));
        let (t0, p0) = (thread_cpu_s(), process_cpu_s());
        let own = pid_cpu_s(std::process::id()).expect("own CPU clock is readable");
        std::hint::black_box(spin());
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
        assert!(pid_cpu_s(std::process::id()).expect("readable") > own);
    }
}
