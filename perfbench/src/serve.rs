//! Serving over TCP (`serve-sound-low` and the saturated window of the
//! traced run): `TrainerServer::serve_async_tcp` on its own thread, driven
//! over TCP loopback by one generator thread running one
//! `AsyncDriver`. Each session does what the fleet client does: dial,
//! probe `KIND_HEALTH` on the new connection, attach a warm
//! classification engine, close.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppcs_core::{
    Client, PpcsError, ProtocolConfig, ServerConfig, SessionSupervisor, Trainer, TrainerServer,
    WarmSessionCache,
};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::ObliviousTransfer;
use ppcs_svm::{Label, SvmModel};
use ppcs_telemetry::{MetricsRegistry, ReactorMetric, SessionReport};
use ppcs_transport::{
    probe_health, tcp_connect, AsyncDriver, AsyncEvent, ConnId, DriveOptions, Driver, HealthStatus,
};

use crate::fixture::{algebra, diabetes, mix, ms, sound_ot, train_linear};
use crate::layers;
use crate::measure::{CpuShares, Measured, SessionStats, PHASES};
use crate::sys::{current_tid, process_cpu_ns, task_cpu_ns, thread_cpu_ns};
use crate::trace::Tracer;
use crate::workloads::SetupTimes;

/// Offered load of `serve-sound-low`, sessions/s (about a quarter of
/// the saturated capacity measured when the benchmark was written).
pub const RATE_LOW: f64 = 2.0;
/// Sessions in flight at most (the generator's connection cap).
pub const MAX_IN_FLIGHT: usize = 2;
/// A fixed-rate session slower than this, from its due time, failed.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// A health probe unanswered this long failed its session.
pub const PROBE_WINDOW: Duration = Duration::from_secs(1);
/// Per-receive timeout of a session engine.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest single wait of the generator's event loop.
const POLL_CAP: Duration = Duration::from_millis(5);
/// How long set-up waits for a precompute pool that stopped growing.
const POOL_STALL: Duration = Duration::from_secs(2);
/// The warm-session cache key of the one server.
const PEER: u64 = 0;

/// How the generator offers sessions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Open loop: seeded Poisson arrivals at this rate, at most
    /// [`MAX_IN_FLIGHT`] in flight, latency from the due time.
    Rate(f64),
    /// [`MAX_IN_FLIGHT`] sessions always in flight.
    Saturate,
}

/// Arrival offsets of a Poisson process at `rate` over `seconds`:
/// the inter-arrival gaps are the exponential quantiles at the
/// midpoints of `n = rate·seconds` equal strata, in seeded random
/// order, and arrival `k` comes after gap `k`. Every seed offers the
/// same gaps and the same last arrival, so seeds differ only in how
/// arrivals cluster, not in how many arrive or over how long.
pub fn arrivals(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    gaps.shuffle(&mut rand::rngs::StdRng::seed_from_u64(mix(seed, 1 << 42)));
    let mut at = 0.0;
    gaps.iter()
        .map(|g| {
            at += g;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// The serving fixture: the linear model behind a `TrainerServer`.
pub struct ServeFixture {
    /// The served model.
    pub model: SvmModel,
    /// Its trainer.
    pub trainer: Trainer<FixedFpAlgebra>,
    /// The generator's client.
    pub client: Client<FixedFpAlgebra>,
    /// The generator's warm-session cache (primed by the warm-up).
    pub cache: WarmSessionCache,
    /// One single-sample batch per test row.
    pub samples: Vec<Vec<Vec<f64>>>,
    /// `model.predict` per test row: the oracle.
    pub expected: Vec<Label>,
    /// Set-up timings so far.
    pub times: SetupTimes,
}

/// What one server lifetime produced.
pub struct ServeRun {
    /// Set-up: fixture, bind, pool fill, warm-up session and refill, s.
    pub setup_s: f64,
    /// Bind to a full precompute pool, s.
    pub pool_fill_s: f64,
    /// The measurement window (empty when no window was asked for).
    pub measured: Measured,
    /// Idle health-probe round trips, ms.
    pub idle_probe_ms: Vec<f64>,
}

impl ServeFixture {
    /// Generates the data, trains the model and builds the trainer.
    pub fn build() -> Self {
        let start = Instant::now();
        let data = diabetes();
        let t = Instant::now();
        let model = train_linear(&data.spec, &data.train);
        let train_ms = ms(t);
        let trainer = Trainer::new(algebra(), &model, ProtocolConfig::default())
            .expect("trainer for the diabetes model");
        let samples = (0..data.test.len())
            .map(|i| vec![data.test.features(i).to_vec()])
            .collect();
        let expected = (0..data.test.len())
            .map(|i| model.predict(data.test.features(i)))
            .collect();
        Self {
            times: SetupTimes {
                generate_ms: data.generate_ms,
                train_ms,
                total_s: start.elapsed().as_secs_f64(),
            },
            model,
            trainer,
            client: Client::new(algebra(), ProtocolConfig::default()),
            cache: WarmSessionCache::new(),
            samples,
            expected,
        }
    }

    /// Starts a server with `ServerConfig::default()`, waits for a full
    /// precompute pool, runs one warm-up session and waits for the pool
    /// to refill (all of it set-up), then measures `load` for `seconds`
    /// (none when `0`) and drains the server. With tracing on the
    /// server carries a telemetry registry and sessions record spans.
    pub fn serve(&self, seed: u64, load: Load, seconds: f64, tracer: &Tracer) -> ServeRun {
        let setup_start = Instant::now();
        let config = ServerConfig::default();
        let capacity = config.precompute_capacity as u64;
        let registry = tracer.enabled().then(|| MetricsRegistry::new(0, "server"));
        let mut server = TrainerServer::new(&self.trainer, config);
        if let Some(reg) = &registry {
            server = server.with_metrics(reg.clone());
        }
        let supervisor = server.supervisor();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let ot = sound_ot();
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| {
                let _ = tid_tx.send(current_tid());
                server.serve_async_tcp(listener, &ot, seed)
            });
            // Drains the server however this scope is left, so a failure
            // here cannot leave the scope waiting on a live server.
            let _drain = DrainOnDrop(&supervisor);
            let server_tid = tid_rx.recv().expect("server thread started");
            let idle_probe_ms = wait_pool_full(addr, capacity);
            let pool_fill_s = setup_start.elapsed().as_secs_f64();
            self.warm_up(addr, seed);
            wait_pool_full(addr, capacity);
            let setup_s = setup_start.elapsed().as_secs_f64();
            let before = registry.as_ref().map(|r| r.report());
            let mut measured = if seconds > 0.0 {
                self.drive(addr, load, seconds, seed, tracer, server_tid)
            } else {
                Measured::default()
            };
            if let (Some(reg), Some(before)) = (&registry, before) {
                server_telemetry(&mut measured, reg, &before);
            }
            drop(_drain);
            let summary = serving
                .join()
                .expect("server thread")
                .expect("server reactor");
            measured.shed = summary.sessions_shed;
            ServeRun {
                setup_s,
                pool_fill_s,
                measured,
                idle_probe_ms,
            }
        })
    }

    /// The sample row session `index` classifies.
    fn row(&self, seed: u64, index: u64) -> usize {
        (mix(seed, index | 1 << 40) % self.samples.len() as u64) as usize
    }

    /// A cold one-sample sound session with both engines pumped on this
    /// thread: (trainer busy, client busy), ms.
    pub fn pumped(&self, tracer: &Tracer, seed: u64) -> (f64, f64) {
        let sel = sound_ot().select();
        layers::core_busy(tracer, |rep| {
            let row = self.row(seed, rep);
            let mut serve = self.trainer.serve_engine(sel, mix(seed, 2 * rep));
            let mut classify =
                self.client
                    .classify_engine(sel, mix(seed, 2 * rep + 1), &self.samples[row]);
            let (results, busy) = layers::pump(&mut serve, &mut classify);
            let (served, values) = results.expect("session deadlocked");
            assert!(
                served.is_ok() && values.is_ok_and(|v| v[0].0 == self.expected[row]),
                "pumped session output"
            );
            busy
        })
    }

    /// One cold first-contact session over a blocking TCP endpoint; it
    /// primes the warm-session cache. Its outcome is not checked: a
    /// failing program shows in the measured sessions.
    fn warm_up(&self, addr: SocketAddr, seed: u64) {
        let ep = tcp_connect(addr).expect("dial server");
        let _ = probe_health(&ep, PROBE_WINDOW);
        let mut engine = self.client.classify_warm_engine(
            sound_ot().select(),
            mix(seed, 1 << 43),
            &self.samples[0],
            &self.cache,
            PEER,
            None,
        );
        let _ = Driver::new()
            .with_timeout(RECV_TIMEOUT)
            .drive(&ep, &mut engine);
    }

    /// The measurement window: one `AsyncDriver` on this thread offers
    /// sessions per `load`. Each session is charged its share of the
    /// process CPU time from its dial to its end.
    fn drive(
        &self,
        addr: SocketAddr,
        load: Load,
        seconds: f64,
        seed: u64,
        tracer: &Tracer,
        server_tid: Option<u32>,
    ) -> Measured {
        let sel = sound_ot().select();
        let mut driver: AsyncDriver<'_, Vec<(Label, f64)>, PpcsError> =
            AsyncDriver::new().expect("client reactor");
        let schedule = match load {
            Load::Rate(rate) => arrivals(rate, seconds, seed),
            Load::Saturate => Vec::new(),
        };
        let mut m = Measured::default();
        let mut flights: HashMap<ConnId, Flight> = HashMap::new();
        let mut started = 0u64;
        let shares = CpuShares::default();
        let process_cpu0 = process_cpu_ns();
        let cpu0 = thread_cpu_ns();
        let server_cpu0 = server_tid.map_or(0, task_cpu_ns);
        let start = Instant::now();
        let stop_starting = start + Duration::from_secs_f64(seconds);
        // A fixed-rate window that falls this far behind stops starting
        // sessions; the rest count as failed backlog.
        let give_up = stop_starting + LATENCY_LIMIT;
        let mut last_free = start;
        let mut last_done = start;
        loop {
            let now = Instant::now();
            while flights.len() < MAX_IN_FLIGHT {
                let due = match load {
                    Load::Rate(_) => match schedule.get(started as usize) {
                        Some(off) if start + *off <= now && now < give_up => start + *off,
                        _ => break,
                    },
                    Load::Saturate if now < stop_starting => last_free,
                    Load::Saturate => break,
                };
                let ready = due.max(last_free);
                m.late_max_ms = m
                    .late_max_ms
                    .max(now.saturating_duration_since(ready).as_secs_f64() * 1e3);
                let row = self.row(seed, started);
                shares.open(started);
                match dial(&mut driver, addr) {
                    Ok((conn, probe_sent)) => {
                        flights.insert(
                            conn,
                            Flight {
                                index: started,
                                row,
                                due,
                                dialed: now,
                                probe_sent,
                                attached: None,
                                probe_ms: None,
                                probe_bytes: HealthStatus::request().wire_len() as u64,
                                registry: MetricsRegistry::new(started, "client"),
                            },
                        );
                    }
                    Err(_) => {
                        shares.close(started);
                        m.sessions.push(SessionStats::default());
                    }
                }
                started += 1;
            }
            let finished_starting = match load {
                Load::Rate(_) => started as usize >= schedule.len() || now >= give_up,
                Load::Saturate => now >= stop_starting,
            };
            if finished_starting && flights.is_empty() {
                break;
            }
            let wait = match (load, schedule.get(started as usize)) {
                (Load::Rate(_), Some(off)) if flights.len() < MAX_IN_FLIGHT => {
                    (start + *off).saturating_duration_since(now).min(POLL_CAP)
                }
                _ => POLL_CAP,
            };
            for event in driver.poll(wait) {
                let now = Instant::now();
                match event {
                    AsyncEvent::Opening { conn, frame } => {
                        let Some(f) = flights.get_mut(&conn) else {
                            continue;
                        };
                        let status = HealthStatus::parse(&frame);
                        if f.probe_ms.is_some() || !status.as_ref().is_ok_and(|s| !s.draining) {
                            shares.close(f.index);
                            flights.remove(&conn);
                            driver.close(conn);
                            m.sessions.push(SessionStats::default());
                            last_free = now;
                            continue;
                        }
                        f.probe_ms = Some(ms_between(f.probe_sent, now));
                        f.probe_bytes += frame.wire_len() as u64;
                        f.attached = Some(now);
                        let engine = self.client.classify_warm_engine(
                            sel,
                            mix(seed, 2 * f.index + 1),
                            &self.samples[f.row],
                            &self.cache,
                            PEER,
                            None,
                        );
                        driver.attach_engine(
                            conn,
                            engine,
                            DriveOptions::new()
                                .with_timeout(RECV_TIMEOUT)
                                .with_metrics(f.registry.clone()),
                        );
                    }
                    AsyncEvent::Finished { conn, result, .. } => {
                        driver.close(conn);
                        let Some(f) = flights.remove(&conn) else {
                            continue;
                        };
                        last_free = now;
                        last_done = now;
                        let correct = result
                            .as_ref()
                            .map(|v| v.len() == 1 && v[0].0 == self.expected[f.row]);
                        let cpu_ns = shares.close(f.index);
                        m.sessions
                            .push(f.finish(load, correct, now, cpu_ns, tracer));
                    }
                    AsyncEvent::Closed { conn }
                    | AsyncEvent::Malformed { conn, .. }
                    | AsyncEvent::IdleExpired { conn } => {
                        driver.close(conn);
                        if let Some(f) = flights.remove(&conn) {
                            shares.close(f.index);
                            m.sessions.push(SessionStats::default());
                            last_free = now;
                        }
                    }
                    AsyncEvent::Accepted { .. } => {}
                }
            }
            let now = Instant::now();
            let mute: Vec<ConnId> = flights
                .iter()
                .filter(|(_, f)| f.probe_ms.is_none() && now - f.probe_sent > PROBE_WINDOW)
                .map(|(c, _)| *c)
                .collect();
            for conn in mute {
                if let Some(f) = flights.remove(&conn) {
                    shares.close(f.index);
                }
                driver.close(conn);
                m.sessions.push(SessionStats::default());
                last_free = now;
            }
        }
        m.never_started = (schedule.len() as u64).saturating_sub(started);
        let wall_s = last_done.duration_since(start).as_secs_f64();
        m.sessions_per_s = if wall_s > 0.0 {
            m.ok().count() as f64 / wall_s
        } else {
            0.0
        };
        m.wall_s = wall_s;
        m.cpu_ns = process_cpu_ns() - process_cpu0;
        m.client_cpu_ns = thread_cpu_ns() - cpu0;
        m.server_cpu_ns = server_tid.map_or(0, task_cpu_ns) - server_cpu0;
        m
    }
}

/// One session in flight.
struct Flight {
    index: u64,
    row: usize,
    due: Instant,
    dialed: Instant,
    probe_sent: Instant,
    attached: Option<Instant>,
    probe_ms: Option<f64>,
    probe_bytes: u64,
    registry: Arc<MetricsRegistry>,
}

impl Flight {
    /// `correct` is `Err` for a session that ended in an error.
    fn finish<E>(
        self,
        load: Load,
        correct: Result<bool, E>,
        now: Instant,
        cpu_ns: u64,
        tracer: &Tracer,
    ) -> SessionStats {
        let latency_ms = ms_between(self.due, now);
        let within_limit =
            matches!(load, Load::Saturate) || latency_ms <= LATENCY_LIMIT.as_secs_f64() * 1e3;
        let report = self.registry.report();
        let mut s = SessionStats {
            ok: matches!(correct, Ok(true)) && within_limit,
            mismatch: matches!(correct, Ok(false)),
            latency_ms,
            cpu_ns,
            wire_bytes: report.total_wire_bytes() + self.probe_bytes,
            frames: report.frames_sent() + report.frames_received() + 2,
            rounds: report.rounds,
            probe_ms: self.probe_ms,
            ..SessionStats::default()
        };
        s.add_phases(&report);
        if tracer.enabled() {
            let id = tracer.fresh_id();
            let root = tracer.record("session", 0, id, self.due, now);
            let attached = self.attached.unwrap_or(now);
            tracer.record("serve.wait_for_slot", root, id, self.due, self.dialed);
            tracer.record("serve.dial", root, id, self.dialed, self.probe_sent);
            tracer.record("serve.probe", root, id, self.probe_sent, attached);
            tracer.record("serve.classify", root, id, attached, now);
        }
        s
    }
}

/// Dials the server, registers the connection and sends the probe.
fn dial(
    driver: &mut AsyncDriver<'_, Vec<(Label, f64)>, PpcsError>,
    addr: SocketAddr,
) -> Result<(ConnId, Instant), ppcs_transport::TransportError> {
    let stream =
        TcpStream::connect(addr).map_err(|_| ppcs_transport::TransportError::Disconnected)?;
    let conn = driver.add_tcp(stream)?;
    let sent = Instant::now();
    driver.send_frame(conn, HealthStatus::request())?;
    Ok((conn, sent))
}

/// Drains a serving run when dropped.
struct DrainOnDrop<'a>(&'a SessionSupervisor);

impl Drop for DrainOnDrop<'_> {
    fn drop(&mut self) {
        self.0.drain();
    }
}

/// Probes over one connection until the pool reports `capacity` packs,
/// or stops growing for [`POOL_STALL`] (a server that fills less, or
/// not at all, is measured as it is); returns each probe's round trip,
/// ms. The server fills one pack per event-loop turn that saw no event
/// (a turn waits up to 50 ms), so the probes are spaced well apart to
/// leave it idle turns.
fn wait_pool_full(addr: SocketAddr, capacity: u64) -> Vec<f64> {
    let ep = tcp_connect(addr).expect("dial server");
    let mut rtts = Vec::new();
    let (mut depth, mut grew) = (0, Instant::now());
    loop {
        let t = Instant::now();
        let status = probe_health(&ep, PROBE_WINDOW).expect("health probe");
        rtts.push(ms_between(t, Instant::now()));
        if status.pool_depth > depth {
            (depth, grew) = (status.pool_depth, Instant::now());
        }
        if depth >= capacity || grew.elapsed() >= POOL_STALL {
            return rtts;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Adds the server registry's deltas over the window: pool hits and
/// misses, mean reactor loop lag, and the serving side's phase time spread
/// evenly over the window's sessions.
fn server_telemetry(m: &mut Measured, reg: &MetricsRegistry, before: &SessionReport) {
    let after = reg.report();
    m.pool_hits = after.pool_hits - before.pool_hits;
    m.pool_misses = after.pool_misses - before.pool_misses;
    // The mean over the window from the histogram's exact sum and count
    // (its quantiles are power-of-two bucket bounds).
    let lag = |r: &SessionReport| {
        r.reactor_metric(ReactorMetric::LoopLagNs.name())
            .map_or((0, 0), |h| (h.sum, h.count))
    };
    let ((sum, count), (sum0, count0)) = (lag(&after), lag(before));
    m.loop_lag_mean_us = if count > count0 {
        (sum - sum0) as f64 / (count - count0) as f64 / 1e3
    } else {
        0.0
    };
    let n = m.sessions.len().max(1) as u64;
    let phase_total = |r: &SessionReport, name| r.phase(name).map_or(0, |p| p.total_ns);
    for (k, name) in PHASES.iter().enumerate() {
        let delta = phase_total(&after, name) - phase_total(before, name);
        for s in &mut m.sessions {
            s.phase_ns[k] += delta / n;
        }
    }
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_offers_the_same_gaps() {
        let a = arrivals(4.0, 15.0, 1);
        let b = arrivals(4.0, 15.0, 2);
        assert_eq!(a.len(), 60);
        assert_ne!(a, b);
        let last = |v: &[Duration]| v.last().copied().unwrap_or_default().as_secs_f64();
        assert!((last(&a) - last(&b)).abs() < 1e-9);
        assert!((last(&a) - 15.0).abs() < 0.5, "window {}", last(&a));
    }
}
