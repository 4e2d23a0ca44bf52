//! Per-layer probes of the traced run. Each times calls into one
//! layer's public entry points from here; nothing inside the program is
//! instrumented. Every probe repeats its measurement and reports the
//! median, and records one span per repetition under a root span.

use std::hint::black_box;
use std::time::Instant;

use ppcs_core::{
    Client, ModelGeometry, ProtocolConfig, SimilarityConfig, Trainer, WarmSessionCache,
};
use ppcs_math::{
    eval_cloud_many, interp_batch, Algebra, DenseAffine, FixedFpAlgebra, Fp256, PolyEval,
};
use ppcs_ompe::{ompe_receive_batch_io, ompe_send_batch_io, OmpeParams};
use ppcs_ot::{
    ot_begin_receive_io, ot_begin_send_io, ot_receive_io, ot_send_io, ObliviousTransfer,
    TrustedSimOt,
};
use ppcs_svm::SvmModel;
use ppcs_transport::{run_engine_pair, Frame, ProtocolEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fixture::{algebra, mix, sound_ot};
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of each probe.
pub const REPS: usize = 5;

/// Runs `f` [`REPS`] times under a root span `name` and returns the
/// median of what it reports.
fn probe(tracer: &Tracer, name: &'static str, mut f: impl FnMut(u64) -> f64) -> f64 {
    let session = tracer.fresh_id();
    let root = tracer.begin(name, 0, session);
    let values: Vec<f64> = (0..REPS as u64)
        .map(|rep| {
            let span = tracer.begin("probe.rep", root.id(), session);
            let v = f(rep);
            tracer.end(span);
            v
        })
        .collect();
    tracer.end(root);
    median(&values)
}

/// Busy time of each engine when both are pumped on this thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// ns spent in the first engine's steps (`poll_output`, and
    /// `handle_input` of frames sent to it).
    pub a_ns: u64,
    /// Same for the second engine.
    pub b_ns: u64,
}

/// Pumps two engines against each other on the calling thread until
/// both finish, as `ppcs_transport::run_engine_pair` does, timing each
/// party's steps separately. Returns both results, or `None` for a
/// deadlocked pair.
#[allow(clippy::type_complexity)]
pub fn pump<TA, EA, TB, EB>(
    a: &mut ProtocolEngine<'_, TA, EA>,
    b: &mut ProtocolEngine<'_, TB, EB>,
) -> (Option<(Result<TA, EA>, Result<TB, EB>)>, Busy) {
    let mut busy = Busy::default();
    loop {
        let mut progressed = false;
        loop {
            let t = Instant::now();
            let out = a.poll_output();
            busy.a_ns += t.elapsed().as_nanos() as u64;
            let Some(out) = out else { break };
            progressed = true;
            let t = Instant::now();
            for f in out.frames() {
                b.handle_input(f.clone());
            }
            busy.b_ns += t.elapsed().as_nanos() as u64;
        }
        loop {
            let t = Instant::now();
            let out = b.poll_output();
            busy.b_ns += t.elapsed().as_nanos() as u64;
            let Some(out) = out else { break };
            progressed = true;
            let t = Instant::now();
            for f in out.frames() {
                a.handle_input(f.clone());
            }
            busy.a_ns += t.elapsed().as_nanos() as u64;
        }
        if a.is_done() && b.is_done() {
            let ra = a.take_result().expect("engine a done");
            let rb = b.take_result().expect("engine b done");
            return (Some((ra, rb)), busy);
        }
        if !progressed {
            return (None, busy);
        }
    }
}

/// `ppcs-crypto`: one `power_g` and one `exp` on the sound group, µs.
pub fn crypto(tracer: &Tracer, seed: u64) -> (f64, f64) {
    let group = sound_ot().group();
    let mut rng = StdRng::seed_from_u64(mix(seed, 1 << 44));
    const CALLS: usize = 10;
    let power_g = probe(tracer, "layer.crypto.power_g", |_| {
        let e = group.random_exponent(&mut rng);
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(group.power_g(black_box(&e)));
        }
        t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
    });
    let exp = probe(tracer, "layer.crypto.exp", |_| {
        let base = group.power_g(&group.random_exponent(&mut rng));
        let e = group.random_exponent(&mut rng);
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(group.exp(black_box(&base), black_box(&e)));
        }
        t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
    });
    (power_g, exp)
}

/// `ppcs-ot`: one Naor–Pinkas k-out-of-N transfer (base commitment
/// included) at `classify-sound`'s N, k and message length; each
/// side's busy time, ms.
pub fn kn_ot(tracer: &Tracer, seed: u64, params: &OmpeParams) -> (f64, f64) {
    let sel = sound_ot().select();
    let (n, k) = (params.num_points(), params.num_covers());
    // One OT message is one length-prefixed field element.
    let len = 8 + Frame::encode(0, &Fp256::ZERO).payload.len();
    let messages: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; len]).collect();
    let indices: Vec<usize> = (0..k).map(|j| j * n / k).collect();
    let mut receiver_ms = Vec::new();
    let sender = probe(tracer, "layer.ot.kn", |rep| {
        let (messages, indices) = (&messages, &indices);
        let mut s = ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2 * rep));
            let state = ot_begin_send_io(sel, &io, &mut rng).await?;
            ot_send_io(sel, &state, &io, &mut rng, messages, k).await
        });
        let mut r = ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2 * rep + 1));
            let state = ot_begin_receive_io(sel, &io).await?;
            ot_receive_io(sel, &state, &io, &mut rng, n, indices).await
        });
        let (results, busy) = pump(&mut s, &mut r);
        let (sent, got) = results.expect("k-of-N transfer deadlocked");
        sent.expect("OT sender");
        let got = got.expect("OT receiver");
        assert!(
            got.iter().zip(indices).all(|(m, &i)| *m == messages[i]),
            "OT delivered the wrong messages"
        );
        receiver_ms.push(busy.b_ns as f64 / 1e6);
        busy.a_ns as f64 / 1e6
    });
    (sender, median(&receiver_ms))
}

/// `ppcs-math` at a session's composite degree and point count:
/// `eval_cloud_many` over one point cloud (µs), `interp_batch` over
/// `systems` interpolation systems (µs), and one field multiply and
/// inverse (ns).
pub fn math(tracer: &Tracer, seed: u64, params: &OmpeParams, systems: usize) -> [f64; 4] {
    let alg = algebra();
    let mut rng = StdRng::seed_from_u64(mix(seed, 1 << 45));
    let coeffs: Vec<Fp256> = (0..=params.composite_degree())
        .map(|_| Fp256::random(&mut rng))
        .collect();
    let xs: Vec<Fp256> = (0..params.num_points())
        .map(|_| Fp256::random_nonzero(&mut rng))
        .collect();
    let mut out = vec![Fp256::ZERO; xs.len()];
    const EVALS: usize = 2_000;
    let eval = probe(tracer, "layer.math.eval_cloud_many", |_| {
        let t = Instant::now();
        for _ in 0..EVALS {
            eval_cloud_many(black_box(&coeffs), black_box(&xs), &mut out);
            black_box(&out);
        }
        t.elapsed().as_secs_f64() * 1e6 / EVALS as f64
    });
    let system: Vec<(Fp256, Fp256)> = (0..params.num_covers())
        .map(|i| (Fp256::from_u64(i as u64 + 1), Fp256::random(&mut rng)))
        .collect();
    let batch = vec![system; systems];
    let interp = probe(tracer, "layer.math.interp_batch", |_| {
        let t = Instant::now();
        black_box(interp_batch(&alg, black_box(&batch)).expect("distinct abscissae"));
        t.elapsed().as_secs_f64() * 1e6
    });
    const MULS: usize = 1_000_000;
    let x0 = Fp256::random_nonzero(&mut rng);
    let y = Fp256::random_nonzero(&mut rng);
    let mul = probe(tracer, "layer.math.fp_mul", |_| {
        let mut x = x0;
        let t = Instant::now();
        for _ in 0..MULS {
            x = black_box(x * y);
        }
        black_box(x);
        t.elapsed().as_secs_f64() * 1e9 / MULS as f64
    });
    const INVS: usize = 2_000;
    let inv = probe(tracer, "layer.math.fp_inv", |_| {
        let mut x = x0;
        let t = Instant::now();
        for _ in 0..INVS {
            x = black_box(x.inv().expect("nonzero") + y);
        }
        black_box(x);
        t.elapsed().as_secs_f64() * 1e9 / INVS as f64
    });
    [eval, interp, mul, inv]
}

/// `ppcs-ompe`: one batch OMPE exchange of `rounds` evaluations of
/// `vars`-variable affine secrets on simulated OT, both engines pumped
/// on this thread, ms. Every value is checked against direct
/// evaluation.
pub fn ompe_sim(
    tracer: &Tracer,
    seed: u64,
    params: &OmpeParams,
    vars: usize,
    rounds: usize,
) -> f64 {
    let alg = algebra();
    let sel = TrustedSimOt.select();
    let mut rng = StdRng::seed_from_u64(mix(seed, 1 << 46));
    let secrets: Vec<DenseAffine<FixedFpAlgebra>> = (0..rounds)
        .map(|_| {
            let w = (0..vars)
                .map(|_| alg.encode(rng_unit(&mut rng), 1))
                .collect();
            DenseAffine::new(w, alg.encode(rng_unit(&mut rng), 1))
        })
        .collect();
    let alphas: Vec<Vec<Fp256>> = (0..rounds)
        .map(|_| {
            (0..vars)
                .map(|_| alg.encode(rng_unit(&mut rng), 1))
                .collect()
        })
        .collect();
    let want: Vec<Fp256> = secrets
        .iter()
        .zip(&alphas)
        .map(|(s, a)| s.eval(&alg, a))
        .collect();
    probe(tracer, "layer.ompe.sim_session", |rep| {
        let (alg, secrets, alphas) = (&alg, &secrets, &alphas);
        let mut s = ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2 * rep));
            ompe_send_batch_io(alg, &io, sel, &mut rng, secrets, params).await
        });
        let mut r = ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2 * rep + 1));
            ompe_receive_batch_io(alg, &io, sel, &mut rng, alphas, params).await
        });
        let t = Instant::now();
        let results = run_engine_pair(&mut s, &mut r);
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        let (sent, got) = results.expect("OMPE exchange deadlocked");
        sent.expect("OMPE sender");
        assert_eq!(got.expect("OMPE receiver"), want, "OMPE values");
        elapsed
    })
}

fn rng_unit(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    rng.gen_range(-1.0..1.0)
}

/// `ppcs-core` offline/online split, sound: the trainer's and the
/// client's `precompute_material` for one sample, then a warm session
/// on that material pumped on this thread (ms each). `model` must be
/// linear; the label is checked.
pub fn offline_online(tracer: &Tracer, seed: u64, model: &SvmModel, sample: &[f64]) -> [f64; 3] {
    let sel = sound_ot().select();
    let trainer = Trainer::new(algebra(), model, ProtocolConfig::default()).expect("trainer");
    let client = Client::new(algebra(), ProtocolConfig::default());
    let cache = WarmSessionCache::new();
    cache.insert(0, trainer.spec(), trainer.epoch());
    let samples = vec![sample.to_vec()];
    let want = model.predict(sample);
    let mut client_ms = Vec::new();
    let mut online_ms = Vec::new();
    let trainer_ms = probe(tracer, "layer.core.offline_online", |rep| {
        let mut rng = StdRng::seed_from_u64(mix(seed, 1 << 47 | rep));
        let t = Instant::now();
        let material = trainer.precompute_material(sel, 1, &mut rng);
        let trainer_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut offline = client
            .precompute_material(sel, &trainer.spec(), 1, &mut rng)
            .expect("client material");
        client_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut serve = trainer.serve_session_engine(sel, mix(seed, 2 * rep), true, Some(material));
        let mut classify = client.classify_warm_engine(
            sel,
            mix(seed, 2 * rep + 1),
            &samples,
            &cache,
            0,
            Some(&mut offline),
        );
        let t = Instant::now();
        let results = run_engine_pair(&mut serve, &mut classify);
        online_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (served, values) = results.expect("online session deadlocked");
        served.expect("online serve");
        assert_eq!(values.expect("online classify")[0].0, want, "online label");
        trainer_ms
    });
    [trainer_ms, median(&client_ms), median(&online_ms)]
}

/// Both parties of one of the workload's sessions pumped on this
/// thread: (serving party busy, client busy), ms. `session(rep)` runs
/// and checks one pumped session.
pub fn core_busy(tracer: &Tracer, mut session: impl FnMut(u64) -> Busy) -> (f64, f64) {
    let mut client_ms = Vec::new();
    let server_ms = probe(tracer, "layer.core.session_pumped", |rep| {
        let busy = session(rep);
        client_ms.push(busy.b_ns as f64 / 1e6);
        busy.a_ns as f64 / 1e6
    });
    (server_ms, median(&client_ms))
}

/// `Trainer::new` on `model`, ms.
pub fn trainer_new(tracer: &Tracer, model: &SvmModel) -> f64 {
    probe(tracer, "layer.core.trainer_new", |_| {
        let t = Instant::now();
        black_box(Trainer::new(algebra(), model, ProtocolConfig::default()).expect("trainer"));
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// `ModelGeometry::from_model` on a linear `model`, ms.
pub fn similarity_geometry(tracer: &Tracer, model: &SvmModel) -> f64 {
    let cfg = SimilarityConfig::default();
    probe(tracer, "layer.core.similarity_geometry", |_| {
        let t = Instant::now();
        black_box(ModelGeometry::from_model(model, &cfg).expect("geometry"));
        t.elapsed().as_secs_f64() * 1e3
    })
}
