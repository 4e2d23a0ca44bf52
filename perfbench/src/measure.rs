//! What a workload's measurement window collects.

use std::sync::Mutex;

use ppcs_telemetry::SessionReport;

use crate::sys::process_cpu_ns;

/// The span-telemetry phases reported per session, in metric order.
pub const PHASES: [&str; 4] = ["kn_ot", "ompe.point_cloud", "ompe.interpolate", "ompe.mask"];

/// One attempted session.
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Completed without error, with correct output, within any limit.
    pub ok: bool,
    /// Completed, but an output differed from the plaintext oracle.
    pub mismatch: bool,
    /// Latency, ms: from start for closed loops, from the due time for
    /// open loops.
    pub latency_ms: f64,
    /// The process CPU time attributed to this session, ns (see
    /// [`CpuShares`]).
    pub cpu_ns: u64,
    /// Wire bytes both ways on the session's connection.
    pub wire_bytes: u64,
    /// Frames both ways on the session's connection.
    pub frames: u64,
    /// Engine rounds of the generator-side party.
    pub rounds: u64,
    /// Health-probe round trip, ms (serving sessions).
    pub probe_ms: Option<f64>,
    /// Wall-clock ns per phase summed over the parties whose span
    /// telemetry was read (traced runs only), in [`PHASES`] order.
    pub phase_ns: [u64; 4],
}

impl SessionStats {
    /// Adds `report`'s per-phase totals to this session's.
    pub fn add_phases(&mut self, report: &SessionReport) {
        for (slot, name) in self.phase_ns.iter_mut().zip(PHASES) {
            *slot += report.phase(name).map_or(0, |p| p.total_ns);
        }
    }
}

/// Everything one measurement window produced.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Every session started.
    pub sessions: Vec<SessionStats>,
    /// Sessions that were due but never started (open-loop backlog).
    pub never_started: u64,
    /// Window length, s: first start to last completion.
    pub wall_s: f64,
    /// Successful sessions per second over the window.
    pub sessions_per_s: f64,
    /// CPU ns of the whole process over the window.
    pub cpu_ns: u64,
    /// Worst generator lateness, ms: how long a session that could
    /// start (due, with a free slot) waited for the generator.
    pub late_max_ms: f64,
    /// CPU ns of the generator-side threads over the window.
    pub client_cpu_ns: u64,
    /// CPU ns of the serving-side threads over the window.
    pub server_cpu_ns: u64,
    /// Serving-side precompute-pool hits and misses (traced serving runs).
    pub pool_hits: u64,
    /// See `pool_hits`.
    pub pool_misses: u64,
    /// Sessions the server shed.
    pub shed: u64,
    /// Server reactor loop lag, mean µs (traced serving runs).
    pub loop_lag_mean_us: f64,
}

impl Measured {
    /// Sessions attempted, including due sessions never started.
    pub fn attempted(&self) -> u64 {
        self.sessions.len() as u64 + self.never_started
    }

    /// Attempted sessions that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.ok().count() as u64
    }

    /// Sessions whose output was wrong.
    pub fn mismatched(&self) -> u64 {
        self.sessions.iter().filter(|s| s.mismatch).count() as u64
    }

    /// The successful sessions.
    pub fn ok(&self) -> impl Iterator<Item = &SessionStats> {
        self.sessions.iter().filter(|s| s.ok)
    }

    /// Latency of every attempted session, ms; a failed session reads
    /// as infinitely late.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.per_attempt(|s| s.latency_ms)
    }

    /// CPU time of every attempted session, ms; a failed session reads
    /// as infinite.
    pub fn cpu_ms(&self) -> Vec<f64> {
        self.per_attempt(|s| s.cpu_ns as f64 / 1e6)
    }

    /// `field` of each successful session, and `+∞` for each failed or
    /// never-started one: a failure counts as missing any limit.
    fn per_attempt(&self, field: impl Fn(&SessionStats) -> f64) -> Vec<f64> {
        let failed = self.sessions.iter().filter(|s| !s.ok).count() as u64 + self.never_started;
        self.ok()
            .map(field)
            .chain((0..failed).map(|_| f64::INFINITY))
            .collect()
    }

    /// Successful sessions per CPU second of the whole process over
    /// the window.
    pub fn sessions_per_cpu_s(&self) -> f64 {
        if self.cpu_ns == 0 {
            return 0.0;
        }
        self.ok().count() as f64 / (self.cpu_ns as f64 / 1e9)
    }

    /// A per-session count over the successful sessions, if every one
    /// carries the same value (`Err` lists the distinct values).
    pub fn exact(&self, field: impl Fn(&SessionStats) -> u64) -> Result<u64, Vec<u64>> {
        let mut values: Vec<u64> = self.ok().map(field).collect();
        values.sort_unstable();
        values.dedup();
        match values[..] {
            [v] => Ok(v),
            _ => Err(values),
        }
    }
}

/// Attributes the process's CPU time to the sessions in flight. Between
/// two consecutive openings or closings, the CPU time the whole process
/// used is shared evenly by the sessions then open; with none open it
/// goes to no session. Threads the program starts on its own are
/// counted with the rest of the process.
pub struct CpuShares {
    state: Mutex<Shares>,
}

struct Shares {
    /// Process CPU ns at the last opening or closing.
    last_ns: u64,
    /// Open sessions: (key, ns attributed so far).
    open: Vec<(u64, u64)>,
}

impl Shares {
    fn settle(&mut self) {
        let now = process_cpu_ns();
        if let Some(share) = (now - self.last_ns).checked_div(self.open.len() as u64) {
            for (_, ns) in &mut self.open {
                *ns += share;
            }
        }
        self.last_ns = now;
    }
}

impl Default for CpuShares {
    fn default() -> Self {
        Self {
            state: Mutex::new(Shares {
                last_ns: process_cpu_ns(),
                open: Vec::new(),
            }),
        }
    }
}

impl CpuShares {
    /// Starts attributing CPU time to session `key`.
    pub fn open(&self, key: u64) {
        let mut s = self.state.lock().expect("cpu shares");
        s.settle();
        s.open.push((key, 0));
    }

    /// Stops attributing to session `key` and returns its CPU ns (`0`
    /// for a key that is not open).
    pub fn close(&self, key: u64) -> u64 {
        let mut s = self.state.lock().expect("cpu shares");
        s.settle();
        match s.open.iter().position(|(k, _)| *k == key) {
            Some(i) => s.open.swap_remove(i).1,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_infinitely_late() {
        let ok = SessionStats {
            ok: true,
            latency_ms: 5.0,
            cpu_ns: 2_000_000,
            ..SessionStats::default()
        };
        let m = Measured {
            sessions: vec![ok.clone(), SessionStats::default(), ok],
            never_started: 1,
            ..Measured::default()
        };
        assert_eq!(m.failed(), 2);
        assert_eq!(m.latencies_ms(), [5.0, 5.0, f64::INFINITY, f64::INFINITY]);
        assert_eq!(m.cpu_ms(), [2.0, 2.0, f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    fn cpu_of_a_lone_session_is_all_attributed_to_it() {
        let shares = CpuShares::default();
        shares.open(1);
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        while process_cpu_ns() - t0 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let ns = shares.close(1);
        assert!(ns >= 20_000_000, "attributed {ns} ns");
        assert_eq!(shares.close(1), 0);
    }
}
