//! Process and thread readings from procfs (Linux).

/// Peak resident set size of this process (`VmHWM`), in MiB; `0.0`
/// where procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time every thread of this process has run, exited threads
/// included (`CLOCK_PROCESS_CPUTIME_ID`), in nanoseconds. On a guest
/// with paravirtual steal accounting the kernel leaves out the time the
/// hypervisor ran something else on a virtual CPU, so on a shared host
/// this clock reads the program's work where the wall clock also reads
/// its neighbours' load.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has run, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat")
}

/// CPU time thread `tid` of this process has run, in nanoseconds.
pub fn task_cpu_ns(tid: u32) -> u64 {
    read_schedstat(&format!("/proc/self/task/{tid}/schedstat"))
}

fn read_schedstat(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
