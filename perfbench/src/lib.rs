//! The repository benchmark of `ppcs`: end-to-end metrics of the sound
//! protocol on four workloads, and a traced run that breaks a workload
//! down by layer. See `README.md` beside this crate for the workloads,
//! the metrics, and which layer metric should move which end-to-end
//! metric.

pub mod closed;
pub mod fixture;
pub mod layers;
pub mod measure;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

use ppcs_core::{ProtocolConfig, Trainer};

use crate::fixture::{algebra, diabetes, mix, train_linear, train_poly};
use crate::measure::{Measured, SessionStats};
use crate::serve::{Load, ServeFixture, RATE_LOW};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::{ClassifyFixture, SetupTimes, SimilarityFixture, BATCH};

/// Set-ups per run; `setup_s` is the median of their CPU times.
pub const SETUP_REPS: usize = 3;

/// Length of the saturated serving-stack window in traced runs, s.
const SERVING_PROBE_S: f64 = 3.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One-sample cold sessions, sound, closed loop, in-memory.
    ClassifySound,
    /// [`BATCH`]-sample poly-3 sessions on simulated OT, closed loop,
    /// in-memory.
    BatchSkeleton,
    /// Private similarity of two linear models, sound, closed loop.
    SimilaritySound,
    /// Serving stack at a low fixed rate.
    ServeLow,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ClassifySound,
        Workload::BatchSkeleton,
        Workload::SimilaritySound,
        Workload::ServeLow,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassifySound => "classify-sound",
            Workload::BatchSkeleton => "batch-skeleton",
            Workload::SimilaritySound => "similarity-sound",
            Workload::ServeLow => "serve-sound-low",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every attempted session completed, in time, with the output of
    /// its plaintext oracle.
    pub correct: bool,
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions failed (error, shed, probe timeout, wrong output,
    /// missed limit, never started).
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines, for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // A timing that is infinite (most sessions failed) prints as
            // the largest number JSON can carry, never as a fast one.
            let value = if m.value.is_nan() {
                0.0
            } else {
                m.value.clamp(f64::MIN, f64::MAX)
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn count(&mut self, m: &Measured) {
        self.attempted += m.attempted();
        self.failed += m.failed();
        self.correct &= m.mismatched() == 0 && m.failed() == 0;
    }
}

/// A workload's fixture after set-up.
enum Fixture {
    Classify(ClassifyFixture),
    Similarity(SimilarityFixture),
    Serve(ServeFixture),
}

impl Fixture {
    /// One set-up. For the serving workload it includes starting a
    /// server, filling its pool and a warm-up session, then draining it.
    fn set_up(workload: Workload, seed: u64) -> (Self, SetupTimes) {
        match workload {
            Workload::ClassifySound => {
                let f = ClassifyFixture::sound(seed);
                let times = f.times;
                (Fixture::Classify(f), times)
            }
            Workload::BatchSkeleton => {
                let f = ClassifyFixture::skeleton(seed);
                let times = f.times;
                (Fixture::Classify(f), times)
            }
            Workload::SimilaritySound => {
                let f = SimilarityFixture::build(seed);
                let times = f.times;
                (Fixture::Similarity(f), times)
            }
            Workload::ServeLow => {
                let f = ServeFixture::build();
                let run = f.serve(seed, Load::Rate(RATE_LOW), 0.0, &Tracer::new(false));
                let mut times = f.times;
                times.total_s += run.setup_s;
                (Fixture::Serve(f), times)
            }
        }
    }

    /// One measurement window of `seconds`. A serving window runs on a
    /// server of its own, set up (untimed) the same way.
    fn measure(&self, seed: u64, seconds: f64, tracer: &Tracer) -> Measured {
        match self {
            Fixture::Classify(f) => f.measure(tracer, seed, seconds),
            Fixture::Similarity(f) => f.measure(tracer, seed, seconds),
            Fixture::Serve(f) => {
                f.serve(seed, Load::Rate(RATE_LOW), seconds, tracer)
                    .measured
            }
        }
    }

    /// One of the workload's sessions pumped on one thread:
    /// (serving party busy, client busy), ms.
    fn pumped(&self, tracer: &Tracer, seed: u64) -> (f64, f64) {
        match self {
            Fixture::Classify(f) => f.pumped(tracer, seed),
            Fixture::Similarity(f) => f.pumped(tracer, seed),
            Fixture::Serve(f) => f.pumped(tracer, seed),
        }
    }
}

/// Runs `workload` once: [`SETUP_REPS`] set-ups (the last fixture is
/// kept), each timed on the process CPU clock, then a `seconds`
/// measurement window. Untraced, reports the
/// end-to-end metrics. Traced, half the window runs untraced and half
/// traced, the layer probes follow, the per-layer metrics are reported
/// and the spans written to `span_file`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    span_file: Option<&std::path::Path>,
) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut setup_cpu_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        let cpu0 = sys::process_cpu_ns();
        let (f, times) = Fixture::set_up(workload, seed);
        setup_cpu_s.push((sys::process_cpu_ns() - cpu0) as f64 / 1e9);
        setups.push(times);
        fixture = Some(f);
    }
    let fixture = fixture.expect("at least one set-up");
    let off = Tracer::new(false);
    if !traced {
        let window = fixture.measure(seed, seconds, &off);
        out.count(&window);
        end_to_end(&mut out, workload, median(&setup_cpu_s), &setups, &window);
        return out;
    }
    let untraced = fixture.measure(seed, seconds / 2.0, &off);
    out.count(&untraced);
    let tracer = Tracer::new(true);
    let traced = fixture.measure(seed, seconds / 2.0, &tracer);
    out.count(&traced);
    per_layer(
        &mut out, seed, &tracer, &fixture, &setups, &untraced, &traced,
    );
    for (name, t) in tracer.self_times() {
        out.notes.push(format!(
            "{}: span {name}: {} spans, total {:.3} ms, self {:.3} ms",
            workload.name(),
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    if let Some(path) = span_file {
        match tracer.write_json(path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    out
}

/// The one value of an exact per-session count, or (noted) the median
/// of the distinct values when sessions disagree.
fn exact(
    m: &Measured,
    what: &str,
    field: fn(&SessionStats) -> u64,
    notes: &mut Vec<String>,
) -> f64 {
    match m.exact(field) {
        Ok(v) => v as f64,
        Err(values) => {
            notes.push(format!("{what} differ across sessions: {values:?}"));
            median(&values.iter().map(|v| *v as f64).collect::<Vec<_>>())
        }
    }
}

fn end_to_end(
    out: &mut Outcome,
    workload: Workload,
    setup_s: f64,
    setups: &[SetupTimes],
    m: &Measured,
) {
    let cpu = m.cpu_ms();
    let t = tail(&cpu);
    let wire = exact(m, "wire bytes", |s| s.wire_bytes, &mut out.notes);
    out.push("setup_s", setup_s, "s");
    out.push("session_cpu_p50_ms", median(&cpu), "ms");
    out.push("session_cpu_tail_ms", t.value, "ms");
    out.push("sessions_per_cpu_s", m.sessions_per_cpu_s(), "1/s");
    out.push("wire_bytes_per_session", wire, "bytes");
    out.push("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    let name = workload.name();
    let lat = m.latencies_ms();
    let wall_tail = tail(&lat);
    let wall_setup = median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let n = &mut out.notes;
    n.push(format!(
        "{name}: session_cpu_tail_ms is p{:.1} of {} sessions",
        t.percentile, t.samples
    ));
    n.push(format!(
        "{name}: wall clock: setup {wall_setup:.3} s, session p50 {:.3} ms, \
         tail {:.3} ms (p{:.1} of {}), {:.3} sessions/s",
        median(&lat),
        wall_tail.value,
        wall_tail.percentile,
        wall_tail.samples,
        m.sessions_per_s
    ));
    n.push(format!(
        "{name}: error_rate = {} ({} failed of {} attempted)",
        if out.attempted == 0 {
            0.0
        } else {
            out.failed as f64 / out.attempted as f64
        },
        out.failed,
        out.attempted
    ));
    if workload == Workload::BatchSkeleton {
        n.push(format!(
            "{name}: {} samples per CPU second, {} samples/s wall clock ({BATCH} per session)",
            m.sessions_per_cpu_s() * BATCH as f64,
            m.sessions_per_s * BATCH as f64
        ));
    }
    let probes: Vec<f64> = m.ok().filter_map(|s| s.probe_ms).collect();
    if !probes.is_empty() {
        let pt = tail(&probes);
        n.push(format!(
            "{name}: probe_p50_ms = {:.3} ms, probe_tail_ms = {:.3} ms (p{:.1} of {})",
            median(&probes),
            pt.value,
            pt.percentile,
            pt.samples
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    seed: u64,
    tracer: &Tracer,
    fixture: &Fixture,
    setups: &[SetupTimes],
    untraced: &Measured,
    traced: &Measured,
) {
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    // Probes at the sound classification session's parameters, on the
    // linear model.
    let data = diabetes();
    let linear = train_linear(&data.spec, &data.train);
    let sample = data
        .test
        .features((mix(seed, 3) % data.test.len() as u64) as usize);
    let sound = Trainer::new(algebra(), &linear, ProtocolConfig::default())
        .expect("trainer")
        .spec();
    let (power_g_us, exp_us) = layers::crypto(tracer, seed);
    let (kn_sender_ms, kn_receiver_ms) = layers::kn_ot(tracer, seed, &sound.ompe);
    let [offline_trainer_ms, offline_client_ms, online_ms] =
        layers::offline_online(tracer, seed, &linear, sample);
    let geometry_ms = layers::similarity_geometry(tracer, &linear);

    // Probes at the batch shape: the poly-3 model (120-term monomial
    // basis) classifying `BATCH` samples per session.
    let poly = train_poly(&data.spec, &data.train);
    let trainer_new_ms = layers::trainer_new(tracer, &poly);
    let batch = Trainer::new(algebra(), &poly, ProtocolConfig::default())
        .expect("trainer")
        .spec();
    let [eval_us, interp_us, mul_ns, inv_ns] = layers::math(tracer, seed, &batch.ompe, BATCH);
    let ompe_ms = layers::ompe_sim(tracer, seed, &batch.ompe, batch.input_arity(), BATCH);

    let (server_busy_ms, client_busy_ms) = fixture.pumped(tracer, seed);

    // Serving-stack readings: a saturated window on a fresh sound
    // server, with a recorder of its own (those sessions are not the
    // workload's).
    let serving = ServeFixture::build().serve(
        mix(seed, 2),
        Load::Saturate,
        SERVING_PROBE_S,
        &Tracer::new(true),
    );
    out.count(&serving.measured);
    let sat = &serving.measured;
    let probes: Vec<f64> = sat.ok().filter_map(|s| s.probe_ms).collect();
    let pool_lookups = sat.pool_hits + sat.pool_misses;
    let pool_hit_ratio = if pool_lookups == 0 {
        0.0
    } else {
        sat.pool_hits as f64 / pool_lookups as f64
    };

    let sessions = traced.ok().count().max(1) as f64;
    let phase_ms =
        |k: usize| traced.ok().map(|s| s.phase_ns[k] as f64).sum::<f64>() / sessions / 1e6;
    // Per traced session: wall-clock latency not covered by the CPU
    // time charged to it (peer waits, wake-ups, queueing, stolen time).
    let waits: Vec<f64> = traced
        .ok()
        .map(|s| s.latency_ms - s.cpu_ns as f64 / 1e6)
        .collect();
    let untraced_lat = untraced.latencies_ms();
    let traced_cpu_p50 = median(&traced.cpu_ms());
    let untraced_cpu_p50 = median(&untraced.cpu_ms());
    let per_wall_s = |cpu_ns: u64| {
        if traced.wall_s > 0.0 {
            cpu_ns as f64 / 1e9 / traced.wall_s
        } else {
            0.0
        }
    };
    let frames = exact(traced, "frames", |s| s.frames, &mut out.notes);
    let rounds_per_session = exact(traced, "rounds", |s| s.rounds, &mut out.notes);

    out.push("crypto.power_g_us", power_g_us, "us");
    out.push("crypto.exp_us", exp_us, "us");
    out.push("ot.kn_sender_busy_ms", kn_sender_ms, "ms");
    out.push("ot.kn_receiver_busy_ms", kn_receiver_ms, "ms");
    // In `measure::PHASES` order.
    out.push("phase.kn_ot_ms", phase_ms(0), "ms");
    out.push("phase.ompe_point_cloud_ms", phase_ms(1), "ms");
    out.push("phase.ompe_interpolate_ms", phase_ms(2), "ms");
    out.push("phase.ompe_mask_ms", phase_ms(3), "ms");
    out.push("ompe.sim_session_ms", ompe_ms, "ms");
    out.push("math.eval_cloud_us", eval_us, "us");
    out.push("math.interp_batch_us", interp_us, "us");
    out.push("math.fp_mul_ns", mul_ns, "ns");
    out.push("math.fp_inv_ns", inv_ns, "ns");
    out.push("core.trainer_busy_ms", server_busy_ms, "ms");
    out.push("core.client_busy_ms", client_busy_ms, "ms");
    out.push("core.session_wait_ms", median(&waits), "ms");
    out.push("core.offline_trainer_ms", offline_trainer_ms, "ms");
    out.push("core.offline_client_ms", offline_client_ms, "ms");
    out.push("core.online_ms", online_ms, "ms");
    out.push("core.trainer_new_ms", trainer_new_ms, "ms");
    out.push("core.similarity_geometry_ms", geometry_ms, "ms");
    out.push("server.pool_hit_ratio", pool_hit_ratio, "ratio");
    out.push("server.pool_fill_s", serving.pool_fill_s, "s");
    out.push(
        "server.cpu_busy_share",
        per_wall_s(traced.server_cpu_ns),
        "ratio",
    );
    out.push("server.sessions_shed", sat.shed as f64, "count");
    out.push("server.capacity_per_s", sat.sessions_per_s, "1/s");
    out.push("reactor.loop_lag_mean_us", sat.loop_lag_mean_us, "us");
    out.push(
        "transport.probe_rtt_idle_ms",
        median(&serving.idle_probe_ms),
        "ms",
    );
    out.push("transport.probe_p50_ms", median(&probes), "ms");
    out.push("transport.probe_tail_ms", tail(&probes).value, "ms");
    out.push("transport.frames_per_session", frames, "frames");
    out.push("transport.rounds_per_session", rounds_per_session, "rounds");
    out.push("loadgen.late_max_ms", traced.late_max_ms, "ms");
    out.push(
        "loadgen.cpu_busy_share",
        per_wall_s(traced.client_cpu_ns),
        "ratio",
    );
    out.push(
        "datasets.generate_ms",
        setup_median(|t| t.generate_ms),
        "ms",
    );
    out.push("svm.train_ms", setup_median(|t| t.train_ms), "ms");
    out.push(
        "telemetry.trace_overhead_ratio",
        if untraced_cpu_p50 > 0.0 {
            traced_cpu_p50 / untraced_cpu_p50
        } else {
            0.0
        },
        "ratio",
    );
    // The workload's wall-clock figures, from the untraced half window.
    out.push("wall.setup_s", setup_median(|t| t.total_s), "s");
    out.push("wall.session_p50_ms", median(&untraced_lat), "ms");
    out.push("wall.session_tail_ms", tail(&untraced_lat).value, "ms");
    out.push("wall.sessions_per_s", untraced.sessions_per_s, "1/s");
}
