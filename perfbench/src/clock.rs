//! The process CPU clock: CPU time of every thread of this process, the
//! time the host stole from its virtual CPUs left out.
//!
//! In a closed loop with one client, every thread of the process works
//! for the operation in flight, so the clock's advance across an
//! operation is that operation's CPU cost. Unlike wall time it does not
//! grow while the process waits for a CPU that another tenant of the host
//! holds; unlike wall time it also leaves out time spent blocked on the
//! device (fsync), which the wall-clock figures of the traced run keep.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
