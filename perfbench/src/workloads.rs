//! The closed-loop workloads: their set-up, their sessions, and their
//! correctness oracles.

use std::time::Instant;

use ppcs_core::{
    similarity_plain, similarity_request_io, similarity_respond_io, Client, PpcsError,
    ProtocolConfig, SimilarityConfig, Trainer,
};
use ppcs_datasets::DatasetSpec;
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{ObliviousTransfer, OtSelect, TrustedSimOt};
use ppcs_svm::{Dataset, Label, SvmModel};
use ppcs_transport::ProtocolEngine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::closed::{closed_loop, run_pair, Done};
use crate::fixture::{algebra, diabetes, mix, ms, sound_ot, train_linear, train_poly, Data};
use crate::layers;
use crate::measure::Measured;
use crate::trace::Tracer;

/// Relative tolerance of a private similarity value around
/// `similarity_plain` (fixed-point rounding moves it by ~1e-4).
pub const SIMILARITY_REL_TOL: f64 = 1e-2;

/// Test samples per `batch-skeleton` session.
pub const BATCH: usize = 256;

/// The session index of the warm-up session in set-up (its outcome is
/// not checked: a failing program shows in the measured sessions).
const WARM_UP: u64 = u64::MAX;

/// Time each set-up step took in one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `ppcs_datasets::generate`, ms.
    pub generate_ms: f64,
    /// SVM training, ms.
    pub train_ms: f64,
    /// The whole set-up, warm-up session included, s.
    pub total_s: f64,
}

/// `classify-sound` (the linear model, one test sample per session,
/// sound) and `batch-skeleton` (the poly-3 model, [`BATCH`] test
/// samples per session, simulated OT).
pub struct ClassifyFixture {
    /// The dataset.
    pub data: Data,
    /// The served model.
    pub model: SvmModel,
    /// Its trainer.
    pub trainer: Trainer<FixedFpAlgebra>,
    /// The client.
    pub client: Client<FixedFpAlgebra>,
    /// `model.predict` of every test sample: the oracle.
    pub expected: Vec<Label>,
    /// The OT engine of every session.
    pub sel: OtSelect,
    /// Test samples per session.
    pub batch: usize,
    /// Set-up timings.
    pub times: SetupTimes,
}

impl ClassifyFixture {
    /// `classify-sound`'s fixture.
    pub fn sound(seed: u64) -> Self {
        Self::build(seed, train_linear, sound_ot().select(), 1)
    }

    /// `batch-skeleton`'s fixture.
    pub fn skeleton(seed: u64) -> Self {
        Self::build(seed, train_poly, TrustedSimOt.select(), BATCH)
    }

    /// Generates the data, trains the model, builds both parties and
    /// runs the warm-up session.
    fn build(
        seed: u64,
        train: fn(&DatasetSpec, &Dataset) -> SvmModel,
        sel: OtSelect,
        batch: usize,
    ) -> Self {
        let start = Instant::now();
        let data = diabetes();
        let t = Instant::now();
        let model = train(&data.spec, &data.train);
        let train_ms = ms(t);
        let trainer = Trainer::new(algebra(), &model, ProtocolConfig::default())
            .expect("trainer for the diabetes model");
        let client = Client::new(algebra(), ProtocolConfig::default());
        let expected = (0..data.test.len())
            .map(|i| model.predict(data.test.features(i)))
            .collect();
        let mut fixture = Self {
            times: SetupTimes {
                generate_ms: data.generate_ms,
                train_ms,
                total_s: 0.0,
            },
            data,
            model,
            trainer,
            client,
            expected,
            sel,
            batch,
        };
        fixture.session(&Tracer::new(false), seed, WARM_UP, 0, 0);
        fixture.times.total_s = start.elapsed().as_secs_f64();
        fixture
    }

    /// The test-set rows session `index` classifies, and their
    /// features.
    fn input(&self, seed: u64, index: u64) -> (Vec<usize>, Vec<Vec<f64>>) {
        let rows: Vec<usize> = (0..self.batch as u64)
            .map(|j| (mix(seed, index | j << 20 | 1 << 40) % self.data.test.len() as u64) as usize)
            .collect();
        let samples = rows
            .iter()
            .map(|&row| self.data.test.features(row).to_vec())
            .collect();
        (rows, samples)
    }

    /// Whether a session over `rows` returned the oracle's labels.
    fn check(
        &self,
        rows: &[usize],
        served: &Result<usize, PpcsError>,
        values: &Result<Vec<(Label, f64)>, PpcsError>,
    ) -> bool {
        served.as_ref().is_ok_and(|n| *n == rows.len())
            && values.as_ref().is_ok_and(|v| {
                v.len() == rows.len()
                    && v.iter()
                        .zip(rows)
                        .all(|(got, &row)| got.0 == self.expected[row])
            })
    }

    /// Runs session `index` and checks its labels against the oracle.
    pub fn session(&self, tracer: &Tracer, seed: u64, index: u64, root: u64, id: u64) -> Done {
        let (rows, samples) = self.input(seed, index);
        let sel = self.sel;
        let run = run_pair(
            tracer,
            id,
            root,
            || self.trainer.serve_engine(sel, mix(seed, 2 * index)),
            || {
                self.client
                    .classify_engine(sel, mix(seed, 2 * index + 1), &samples)
            },
        );
        let correct = self.check(&rows, &run.server, &run.client);
        Done {
            stats: run.stats(correct),
            server_cpu_ns: run.server_cpu_ns,
        }
    }

    /// The closed loop over one peer.
    pub fn measure(&self, tracer: &Tracer, seed: u64, seconds: f64) -> Measured {
        closed_loop(tracer, seconds, |index, root, id| {
            self.session(tracer, seed, index, root, id)
        })
    }

    /// A session with both engines pumped on this thread:
    /// (trainer busy, client busy), ms.
    pub fn pumped(&self, tracer: &Tracer, seed: u64) -> (f64, f64) {
        let sel = self.sel;
        layers::core_busy(tracer, |rep| {
            let (rows, samples) = self.input(seed, rep);
            let mut serve = self.trainer.serve_engine(sel, mix(seed, 2 * rep));
            let mut classify = self
                .client
                .classify_engine(sel, mix(seed, 2 * rep + 1), &samples);
            let (results, busy) = layers::pump(&mut serve, &mut classify);
            let (served, values) = results.expect("session deadlocked");
            assert!(self.check(&rows, &served, &values), "pumped session output");
            busy
        })
    }
}

/// `similarity-sound`: two linear models on disjoint halves of the
/// training split.
pub struct SimilarityFixture {
    /// The responder's model.
    pub model_a: SvmModel,
    /// The requester's model.
    pub model_b: SvmModel,
    /// Protocol configuration (the default).
    pub cfg: SimilarityConfig,
    /// `similarity_plain(model_a, model_b)`: the oracle.
    pub plain: f64,
    /// Set-up timings.
    pub times: SetupTimes,
}

impl SimilarityFixture {
    /// Splits the training set into two seeded halves and trains one
    /// linear model on each.
    pub fn build(seed: u64) -> Self {
        let start = Instant::now();
        let data = diabetes();
        let mut order: Vec<usize> = (0..data.train.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 1 << 41)));
        let (a, b) = order.split_at(order.len() / 2);
        let t = Instant::now();
        let model_a = train_linear(&data.spec, &data.train.subset(a));
        let model_b = train_linear(&data.spec, &data.train.subset(b));
        let train_ms = ms(t);
        let cfg = SimilarityConfig::default();
        let plain = similarity_plain(&model_a, &model_b, &cfg).expect("plain similarity");
        let mut fixture = Self {
            times: SetupTimes {
                generate_ms: data.generate_ms,
                train_ms,
                total_s: 0.0,
            },
            model_a,
            model_b,
            cfg,
            plain,
        };
        fixture.session(&Tracer::new(false), seed, WARM_UP, 0, 0);
        fixture.times.total_s = start.elapsed().as_secs_f64();
        fixture
    }

    /// The responder (model A) of session `index`.
    fn responder(&self, seed: u64, index: u64) -> ProtocolEngine<'_, (), PpcsError> {
        let (model, cfg, sel) = (&self.model_a, &self.cfg, sound_ot().select());
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2 * index));
            similarity_respond_io(&algebra(), &io, sel, &mut rng, model, cfg).await
        })
    }

    /// The requester (model B) of session `index`.
    fn requester(&self, seed: u64, index: u64) -> ProtocolEngine<'_, f64, PpcsError> {
        let (model, cfg, sel) = (&self.model_b, &self.cfg, sound_ot().select());
        ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2 * index + 1));
            similarity_request_io(&algebra(), &io, sel, &mut rng, model, cfg).await
        })
    }

    /// Whether both parties completed and the value is within tolerance
    /// of the plaintext similarity.
    fn check(&self, responded: &Result<(), PpcsError>, value: &Result<f64, PpcsError>) -> bool {
        responded.is_ok()
            && value
                .as_ref()
                .is_ok_and(|t| (t - self.plain).abs() <= SIMILARITY_REL_TOL * self.plain.abs())
    }

    /// Runs session `index` and checks the value against the oracle.
    pub fn session(&self, tracer: &Tracer, seed: u64, index: u64, root: u64, id: u64) -> Done {
        let run = run_pair(
            tracer,
            id,
            root,
            || self.responder(seed, index),
            || self.requester(seed, index),
        );
        let correct = self.check(&run.server, &run.client);
        Done {
            stats: run.stats(correct),
            server_cpu_ns: run.server_cpu_ns,
        }
    }

    /// The closed loop over one peer.
    pub fn measure(&self, tracer: &Tracer, seed: u64, seconds: f64) -> Measured {
        closed_loop(tracer, seconds, |index, root, id| {
            self.session(tracer, seed, index, root, id)
        })
    }

    /// A session with both engines pumped on this thread:
    /// (responder busy, requester busy), ms.
    pub fn pumped(&self, tracer: &Tracer, seed: u64) -> (f64, f64) {
        layers::core_busy(tracer, |rep| {
            let (mut respond, mut request) = (self.responder(seed, rep), self.requester(seed, rep));
            let (results, busy) = layers::pump(&mut respond, &mut request);
            let (responded, value) = results.expect("similarity session deadlocked");
            assert!(self.check(&responded, &value), "pumped similarity value");
            busy
        })
    }
}
