//! Oblivious-transfer benchmarks: the cryptographic Naor–Pinkas engine
//! (768-bit group for timing; the 2048-bit figures scale by the modexp
//! ratio) against the ideal-functionality simulator — the crossover that
//! motivates functional-mode sweeps — and the `DhGroup` exponentiations
//! under every transfer, on both groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppcs_crypto::DhGroup;
use ppcs_ot::{NaorPinkasOt, ObliviousTransfer, TrustedSimOt};
use ppcs_transport::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn transfer(ot: &'static dyn ObliviousTransfer, n: usize, k: usize) {
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
    let indices: Vec<usize> = (0..k).map(|i| (i * 7) % n).collect();
    let (send, got) = run_pair(
        move |ep| {
            let mut rng = StdRng::seed_from_u64(1);
            ot.send(&ep, &mut rng, &msgs, k)
        },
        move |ep| {
            let mut rng = StdRng::seed_from_u64(2);
            ot.receive(&ep, &mut rng, n, &indices)
        },
    );
    send.expect("send");
    black_box(got.expect("recv"));
}

fn bench_ot_real(c: &mut Criterion) {
    use std::sync::OnceLock;
    static NP768: OnceLock<NaorPinkasOt> = OnceLock::new();
    static SIM: TrustedSimOt = TrustedSimOt;
    let np: &'static dyn ObliviousTransfer = NP768.get_or_init(NaorPinkasOt::fast_insecure);

    let mut group = c.benchmark_group("ot_k_of_n");
    group.sample_size(10);
    for &(n, k) in &[(8usize, 4usize), (16, 4), (32, 8)] {
        group.bench_with_input(
            BenchmarkId::new("naor_pinkas_768", format!("{k}of{n}")),
            &(n, k),
            |bench, &(n, k)| bench.iter(|| transfer(np, n, k)),
        );
        group.bench_with_input(
            BenchmarkId::new("trusted_sim", format!("{k}of{n}")),
            &(n, k),
            |bench, &(n, k)| bench.iter(|| transfer(&SIM, n, k)),
        );
    }
    group.finish();
}

/// One `power_g` (fixed-base comb) and one variable-base `exp` with a
/// full-width exponent, per group.
fn bench_group_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dh_group");
    group.sample_size(10);
    for (name, g) in [
        ("modp768", DhGroup::modp_768()),
        ("modp2048", DhGroup::modp_2048()),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let e = g.random_exponent(&mut rng);
        let base = g.power_g(&g.random_exponent(&mut rng));
        group.bench_function(BenchmarkId::new("power_g", name), |b| {
            b.iter(|| black_box(g.power_g(black_box(&e))))
        });
        group.bench_function(BenchmarkId::new("exp", name), |b| {
            b.iter(|| black_box(g.exp(black_box(&base), black_box(&e))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ot_real, bench_group_ops);
criterion_main!(benches);
