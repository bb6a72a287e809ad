//! Golden model digests: training must reproduce these exact models.
//!
//! Each case trains a machine at a fixed seed and pins an FNV-1a digest
//! of its `write_model` text. Any change to the feedback RNG contract
//! (which draws are taken, in which order, from which stream, and how a
//! draw maps to a decision) changes the digest, so an optimisation of
//! the training loop has to keep every model byte-identical.
//!
//! The small cases run in every build. The release-only cases train the
//! exact models `perfbench` deploys (quick split, 5 epochs, T = 15,
//! s = 5, paper clause budget, seed 2024).

use matador_repro::datasets::{generate, DatasetKind, SplitSizes};
use matador_repro::tsetlin::io::write_model;
use matador_repro::tsetlin::params::TmParams;
use matador_repro::tsetlin::MultiClassTm;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::fnv1a;

/// Trains `params` on `kind`'s `sizes` split (dataset and training both
/// seeded with `seed`, one thread) and digests the written model.
fn model_digest(
    kind: DatasetKind,
    sizes: SplitSizes,
    params: TmParams,
    epochs: usize,
    seed: u64,
) -> u64 {
    let data = generate(kind, sizes, seed);
    let mut tm = MultiClassTm::new(params);
    let mut rng = SmallRng::seed_from_u64(seed);
    tm.fit_with_threads(&data.train, epochs, &mut rng, 1);
    let mut text = Vec::new();
    write_model(&tm.to_model(), &mut text).expect("writing to a Vec cannot fail");
    fnv1a(&text)
}

/// One small golden case: hyperparameters vary across datasets so the
/// digests cover several specificities, both `boost_true_positive`
/// settings and several thresholds.
struct Case {
    kind: DatasetKind,
    train: usize,
    clauses: usize,
    threshold: u32,
    specificity: f64,
    boost: bool,
    epochs: usize,
    /// `(seed, digest)` pairs.
    golden: [(u64, u64); 2],
}

const CASES: [Case; 5] = [
    Case {
        kind: DatasetKind::Kws6,
        train: 200,
        clauses: 60,
        threshold: 15,
        specificity: 5.0,
        boost: true,
        epochs: 2,
        golden: [(2024, 0xbacd_afa6_3849_c8aa), (7, 0x1849_783a_30c3_f714)],
    },
    Case {
        kind: DatasetKind::Mnist,
        train: 150,
        clauses: 40,
        threshold: 15,
        specificity: 10.0,
        boost: true,
        epochs: 2,
        golden: [(2024, 0xf48d_767b_fdad_081a), (7, 0xa9be_3fd5_ecbb_47a7)],
    },
    Case {
        kind: DatasetKind::Cifar2,
        train: 100,
        clauses: 60,
        threshold: 8,
        specificity: 3.5,
        boost: false,
        epochs: 2,
        golden: [(2024, 0x0888_16b8_df5c_c90c), (7, 0x4bc0_66ea_e2d7_0886)],
    },
    Case {
        kind: DatasetKind::Iris,
        train: 90,
        clauses: 40,
        threshold: 5,
        specificity: 3.0,
        boost: false,
        epochs: 2,
        golden: [(2024, 0xf092_9484_642e_199d), (7, 0x4021_f169_570a_54af)],
    },
    Case {
        kind: DatasetKind::NoisyXor,
        train: 120,
        clauses: 20,
        threshold: 10,
        specificity: 3.9,
        boost: true,
        epochs: 2,
        golden: [(2024, 0x7d41_880c_f012_9e32), (7, 0x99af_ef7e_f69b_8cd8)],
    },
];

#[test]
fn small_models_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for case in &CASES {
        let sizes = SplitSizes {
            train: case.train,
            test: 1,
        };
        for (seed, want) in case.golden {
            let params = TmParams::builder(case.kind.features(), case.kind.classes())
                .clauses_per_class(case.clauses)
                .threshold(case.threshold)
                .specificity(case.specificity)
                .boost_true_positive(case.boost)
                .build()
                .expect("valid params");
            let got = model_digest(case.kind, sizes, params, case.epochs, seed);
            if got != want {
                mismatches.push(format!("{} seed {seed}: {got:#018x}", case.kind));
            }
        }
    }
    assert!(mismatches.is_empty(), "digest mismatches: {mismatches:?}");
}

/// The models `perfbench` trains and deploys.
#[cfg(not(debug_assertions))]
#[test]
fn perfbench_models_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for (kind, want) in [
        (DatasetKind::Kws6, 0x8234_7d72_b1c0_174b_u64),
        (DatasetKind::Mnist, 0xb349_7edd_50e6_52f8),
    ] {
        let params = TmParams::builder(kind.features(), kind.classes())
            .clauses_per_class(kind.paper_clauses_per_class())
            .threshold(15)
            .specificity(5.0)
            .build()
            .expect("valid params");
        let got = model_digest(kind, SplitSizes::QUICK, params, 5, 2024);
        if got != want {
            mismatches.push(format!("{kind}: {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "digest mismatches: {mismatches:?}");
}
