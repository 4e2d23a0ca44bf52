//! The exact per-session counts — wire bytes, frames, rounds — repeat
//! bit for bit across the sessions of a workload and across runs with
//! the same seed. Zero tolerance: a later change to the wire format or
//! round structure must show up as a changed count, never as noise.

use ppcs_perfbench::measure::Measured;
use ppcs_perfbench::serve::{Load, ServeFixture};
use ppcs_perfbench::trace::Tracer;
use ppcs_perfbench::workloads::{ClassifyFixture, SimilarityFixture};

/// The one value every successful session of `m` carries.
fn counts(m: &Measured) -> (u64, u64, u64) {
    assert!(
        m.ok().count() >= 2,
        "need at least two sessions, got {:?}",
        m.sessions.len()
    );
    assert_eq!(m.failed(), 0, "no session may fail");
    let one = |what: &str, r: Result<u64, Vec<u64>>| {
        r.unwrap_or_else(|v| panic!("{what} differ across sessions: {v:?}"))
    };
    (
        one("wire bytes", m.exact(|s| s.wire_bytes)),
        one("frames", m.exact(|s| s.frames)),
        one("rounds", m.exact(|s| s.rounds)),
    )
}

fn same_across_runs(run: impl Fn() -> Measured) -> (u64, u64, u64) {
    let first = counts(&run());
    assert_eq!(
        counts(&run()),
        first,
        "counts differ between runs with one seed"
    );
    first
}

const SEED: u64 = 7;

#[test]
fn classify_sound_counts_are_exact() {
    let (bytes, frames, rounds) =
        same_across_runs(|| ClassifyFixture::sound(SEED).measure(&Tracer::new(false), SEED, 0.5));
    assert!(bytes > 0 && frames > 0 && rounds > 0);
}

#[test]
fn batch_skeleton_counts_are_exact() {
    same_across_runs(|| ClassifyFixture::skeleton(SEED).measure(&Tracer::new(false), SEED, 0.5));
}

#[test]
fn similarity_sound_counts_are_exact() {
    same_across_runs(|| SimilarityFixture::build(SEED).measure(&Tracer::new(false), SEED, 3.0));
}

#[test]
fn serving_counts_are_exact() {
    let fixture = ServeFixture::build();
    same_across_runs(|| {
        fixture
            .serve(SEED, Load::Saturate, 1.0, &Tracer::new(false))
            .measured
    });
}
