//! Set-up shared by the workloads: the diabetes analog, the trained
//! models, and the sound instantiation.

use std::time::Instant;

use ppcs_datasets::{generate, spec_by_name, DatasetSpec};
use ppcs_math::FixedFpAlgebra;
use ppcs_ot::NaorPinkasOt;
use ppcs_svm::{Dataset, Kernel, SmoParams, SvmModel};

/// Fractional bits of the fixed-point field encoding.
pub const FRAC_BITS: u32 = 16;

/// The field backend of every workload.
pub fn algebra() -> FixedFpAlgebra {
    FixedFpAlgebra::new(FRAC_BITS)
}

/// The sound OT engine: Naor–Pinkas over the 768-bit MODP group.
pub fn sound_ot() -> NaorPinkasOt {
    NaorPinkasOt::fast_insecure()
}

/// splitmix64: derives independent per-session seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The diabetes analog (8 features) with its timing.
pub struct Data {
    /// The catalog entry.
    pub spec: DatasetSpec,
    /// Training split.
    pub train: Dataset,
    /// Test split: the samples sessions classify.
    pub test: Dataset,
    /// Time `generate` took, ms.
    pub generate_ms: f64,
}

/// Generates the diabetes analog from its catalog entry.
pub fn diabetes() -> Data {
    let spec = spec_by_name("diabetes").expect("catalog has diabetes");
    let t = Instant::now();
    let data = generate(&spec);
    Data {
        generate_ms: ms(t),
        spec,
        train: data.train,
        test: data.test,
    }
}

/// Trains the linear SVM with the catalog's `C`.
pub fn train_linear(spec: &DatasetSpec, train: &Dataset) -> SvmModel {
    SvmModel::train(train, Kernel::Linear, &params(spec.c_param))
}

/// Trains the paper's degree-3 polynomial SVM with the catalog's `C`.
pub fn train_poly(spec: &DatasetSpec, train: &Dataset) -> SvmModel {
    SvmModel::train(
        train,
        Kernel::paper_polynomial(spec.dim),
        &params(spec.poly_c),
    )
}

fn params(c: f64) -> SmoParams {
    SmoParams {
        c,
        max_iterations: 300_000,
        ..SmoParams::default()
    }
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
