//! Closed-loop workloads over an in-memory duplex, one thread per
//! party: the next session starts when the previous one ends.

use std::time::{Duration, Instant};

use ppcs_telemetry::{MetricsRegistry, SessionReport};
use ppcs_transport::{duplex, Driver, ProtocolEngine, TransportError};

use crate::measure::{Measured, SessionStats};
use crate::sys::{process_cpu_ns, thread_cpu_ns};
use crate::trace::Tracer;

/// One two-party session over a fresh in-memory duplex.
pub struct PairRun<TA, EA, TB, EB> {
    /// The serving party's result.
    pub server: Result<TA, EA>,
    /// The generator-side party's result.
    pub client: Result<TB, EB>,
    /// Latency, ms.
    pub latency_ms: f64,
    /// Wire bytes both ways.
    pub wire_bytes: u64,
    /// Frames both ways.
    pub frames: u64,
    /// Client engine rounds.
    pub rounds: u64,
    /// CPU ns of the serving thread.
    pub server_cpu_ns: u64,
    /// Both parties' span telemetry (traced runs only).
    pub reports: Vec<SessionReport>,
}

/// Runs one session: the serving party on a scoped thread of its own,
/// the client on the calling thread. Engines are built on the thread
/// that drives them. With tracing on, each party's drive is a span
/// under `parent` and each driver carries a telemetry registry.
pub fn run_pair<'a, TA, EA, TB, EB>(
    tracer: &Tracer,
    session: u64,
    parent: u64,
    make_server: impl FnOnce() -> ProtocolEngine<'a, TA, EA> + Send,
    make_client: impl FnOnce() -> ProtocolEngine<'a, TB, EB>,
) -> PairRun<TA, EA, TB, EB>
where
    TA: Send,
    EA: Send + From<TransportError>,
    EB: From<TransportError>,
{
    let (ep_server, ep_client) = duplex();
    // A driver, plus the telemetry registry it feeds when tracing.
    let driver = |role| {
        let reg = tracer
            .enabled()
            .then(|| MetricsRegistry::new(session, role));
        let driver = match &reg {
            Some(r) => Driver::new().with_metrics(r.clone()),
            None => Driver::new(),
        };
        (driver, reg)
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let span = tracer.begin("server.drive", parent, session);
            let (mut driver, reg) = driver("server");
            let mut engine = make_server();
            let result = driver.drive(&ep_server, &mut engine);
            tracer.end(span);
            (result, thread_cpu_ns(), reg.map(|r| r.report()))
        });
        let span = tracer.begin("client.drive", parent, session);
        let (mut driver, reg) = driver("client");
        let mut engine = make_client();
        let client = driver.drive(&ep_client, &mut engine);
        tracer.end(span);
        let rounds = engine.rounds();
        drop(engine);
        let (server, server_cpu_ns, server_report) = server.join().expect("serving thread");
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = ep_client.stats();
        PairRun {
            server,
            client,
            latency_ms,
            wire_bytes: stats.total_bytes(),
            frames: stats.frames_sent + stats.frames_received,
            rounds,
            server_cpu_ns,
            reports: reg
                .map(|r| r.report())
                .into_iter()
                .chain(server_report)
                .collect(),
        }
    })
}

impl<TA, EA, TB, EB> PairRun<TA, EA, TB, EB> {
    /// The session's stats, given whether its output checked out.
    pub fn stats(&self, correct: bool) -> SessionStats {
        let completed = self.server.is_ok() && self.client.is_ok();
        let mut s = SessionStats {
            ok: completed && correct,
            mismatch: completed && !correct,
            latency_ms: self.latency_ms,
            wire_bytes: self.wire_bytes,
            frames: self.frames,
            rounds: self.rounds,
            ..SessionStats::default()
        };
        for r in &self.reports {
            s.add_phases(r);
        }
        s
    }
}

/// What one closed-loop session hands back: its stats and the CPU its
/// serving thread used.
pub struct Done {
    /// The session.
    pub stats: SessionStats,
    /// CPU ns of the serving thread.
    pub server_cpu_ns: u64,
}

/// Runs one closed loop for `seconds`: sessions back to back on the
/// calling thread until the window closes (a session running at the
/// close is finished and counted). `session(index, root_span, id)` runs
/// one session. One session at a time keeps every session on one core
/// at a time: two busy threads on a 2-vCPU guest may share a physical
/// core, which made the CPU time per session drift with where the host
/// placed them.
pub fn closed_loop(
    tracer: &Tracer,
    seconds: f64,
    mut session: impl FnMut(u64, u64, u64) -> Done,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (cpu0, client_cpu0) = (process_cpu_ns(), thread_cpu_ns());
    let mut last_end = start;
    for index in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let id = tracer.fresh_id();
        let root = tracer.begin("session", 0, id);
        m.late_max_ms = m.late_max_ms.max(last_end.elapsed().as_secs_f64() * 1e3);
        let session_cpu0 = process_cpu_ns();
        let mut done = session(index, root.id(), id);
        done.stats.cpu_ns = process_cpu_ns() - session_cpu0;
        tracer.end(root);
        last_end = Instant::now();
        m.server_cpu_ns += done.server_cpu_ns;
        m.sessions.push(done.stats);
    }
    m.wall_s = last_end.duration_since(start).as_secs_f64();
    m.sessions_per_s = m.ok().count() as f64 / m.wall_s;
    m.cpu_ns = process_cpu_ns() - cpu0;
    m.client_cpu_ns = thread_cpu_ns() - client_cpu0;
    m
}
