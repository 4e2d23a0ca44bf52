//! Pins the exact bytes of seeded sessions of the sound protocol:
//! `FixedFpAlgebra`, `ProtocolConfig::default()` and Naor–Pinkas OT over
//! the 768-bit group. The SHA-256 digest of each recorded transcript is
//! compared with a constant, so any change to the group arithmetic, the
//! OT message flow, the RNG stream or the framing that alters a single
//! wire byte fails here. The constants were recorded while `DhGroup` still
//! ran on `num-bigint`'s `modpow`, so they also pin the Montgomery engine
//! bit-identical to that oracle. A change that is meant to alter the
//! transcript must update the constants and say why.

use std::sync::OnceLock;

use ppcs_core::{similarity_request_io, similarity_respond, Client, ProtocolConfig};
use ppcs_core::{SimilarityConfig, Trainer};
use ppcs_crypto::Sha256;
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::{NaorPinkasOt, ObliviousTransfer};
use ppcs_svm::{Kernel, SvmModel};
use ppcs_tests::{blob_dataset, rotated_model};
use ppcs_transport::{duplex, Driver, ProtocolEngine, Transcript};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SHA-256 of the client-side transcript of [`classification_session`].
const CLASSIFY_DIGEST: &str = "ec398e79506450b0f2798335d5d587b67438dfc2b53795fdd4309ff93c5d410a";
/// SHA-256 of the requester-side transcript of [`similarity_session`].
const SIMILARITY_DIGEST: &str = "56991abc4bd3da4c7c747904b66e7b71ce17d97d235f19b5120716934612049c";

fn np768() -> &'static NaorPinkasOt {
    static NP: OnceLock<NaorPinkasOt> = OnceLock::new();
    NP.get_or_init(NaorPinkasOt::fast_insecure)
}

fn digest_hex(transcript: &Transcript) -> String {
    Sha256::digest(&transcript.to_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// One seeded two-sample classification session; returns whether every
/// label matched the plaintext model, and the client's transcript.
fn classification_session() -> (bool, Transcript) {
    let ds = blob_dataset(3, 40, 91);
    let model = SvmModel::train(&ds, Kernel::Linear, &Default::default());
    let cfg = ProtocolConfig::default();
    let trainer = Trainer::new(FixedFpAlgebra::new(16), &model, cfg).expect("trainer");
    let client = Client::new(FixedFpAlgebra::new(16), cfg);
    let samples: Vec<Vec<f64>> = (0..2).map(|i| ds.features(i).to_vec()).collect();
    let sel = np768().select();
    let (ep, peer) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut eng = trainer.serve_engine(sel, 92);
            Driver::new().drive(&peer, &mut eng).expect("serve");
        });
        let mut driver = Driver::new().with_recording();
        let mut eng = client.classify_engine(sel, 93, &samples);
        let got = driver.drive(&ep, &mut eng).expect("classify");
        let correct = got
            .iter()
            .zip(&samples)
            .all(|((label, _), s)| *label == model.predict(s));
        (
            correct,
            driver.take_transcript().expect("recording enabled"),
        )
    })
}

/// One seeded similarity session between two 2-feature linear models;
/// returns the similarity value and the requester's transcript.
fn similarity_session() -> (f64, Transcript) {
    let cfg = SimilarityConfig::default();
    let model_a = rotated_model(2, 20.0, 94, Kernel::Linear);
    let model_b = rotated_model(2, 50.0, 95, Kernel::Linear);
    let (ep, peer) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(96);
            let alg = FixedFpAlgebra::new(16);
            similarity_respond(&alg, &peer, np768(), &mut rng, &model_a, &cfg).expect("respond");
        });
        let sel = np768().select();
        let model_b = &model_b;
        let mut eng = ProtocolEngine::new(move |io| async move {
            let mut rng = StdRng::seed_from_u64(97);
            let alg = FixedFpAlgebra::new(16);
            similarity_request_io(&alg, &io, sel, &mut rng, model_b, &cfg).await
        });
        let mut driver = Driver::new().with_recording();
        let value = driver.drive(&ep, &mut eng).expect("request");
        (value, driver.take_transcript().expect("recording enabled"))
    })
}

#[test]
fn np768_classification_transcript_is_pinned() {
    let (correct, transcript) = classification_session();
    assert!(correct, "labels must match the plaintext model");
    assert_eq!(digest_hex(&transcript), CLASSIFY_DIGEST);
}

#[test]
fn np768_similarity_transcript_is_pinned() {
    let (value, transcript) = similarity_session();
    assert!(value.is_finite() && value > 0.0, "similarity {value}");
    assert_eq!(digest_hex(&transcript), SIMILARITY_DIGEST);
}
