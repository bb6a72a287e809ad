//! Golden flow digests: the hardware flow must reproduce these exact
//! designs, reports and RTL from a fixed model.
//!
//! Each case trains a model at a fixed seed, generates its design and
//! pins what the flow derives from it: the per-window mapped logic
//! (`hcb_logic()`), the LUT depth, the Fig 3 prefix-register counts, the
//! implemented LUT/FF totals, the whole `VerificationReport` at a fixed
//! verification seed, FNV-1a digests of the emitted Verilog file set and
//! of the optimized window DAGs, and the work counts the default compile
//! pipeline reports for the turbo program. An optimisation of generation,
//! compilation or verification has to leave every one of them unchanged.
//!
//! The small cases (KWS-6 and Noisy XOR quick models, both `Sharing`
//! modes, bus widths that do and do not divide the feature count) run in
//! every build. The release-only case is the MNIST design `perfbench`
//! generates and verifies in its `flow-mnist` workload.

use matador_repro::datasets::{generate, DatasetKind, SplitSizes};
use matador_repro::logic::dag::Sharing;
use matador_repro::logic::share::prefix_register_counts;
use matador_repro::matador::config::MatadorConfig;
use matador_repro::matador::{verify_design, AcceleratorDesign, VerificationReport};
use matador_repro::tsetlin::params::TmParams;
use matador_repro::tsetlin::{MultiClassTm, Sample, TrainedModel};
use matador_repro::{CompilePipeline, PassStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::fnv1a;

/// A trained model and the test samples the flow verifies it on.
struct Trained {
    model: TrainedModel,
    test: Vec<Sample>,
}

/// Trains `kind` on a `sizes` split (dataset and training both seeded
/// with `seed`, one thread).
fn train(
    kind: DatasetKind,
    sizes: SplitSizes,
    params: TmParams,
    epochs: usize,
    seed: u64,
) -> Trained {
    let data = generate(kind, sizes, seed);
    let mut tm = MultiClassTm::new(params);
    let mut rng = SmallRng::seed_from_u64(seed);
    tm.fit_with_threads(&data.train, epochs, &mut rng, 1);
    Trained {
        model: tm.to_model(),
        test: data.test,
    }
}

fn params(kind: DatasetKind, clauses: usize, threshold: u32, specificity: f64) -> TmParams {
    TmParams::builder(kind.features(), kind.classes())
        .clauses_per_class(clauses)
        .threshold(threshold)
        .specificity(specificity)
        .build()
        .expect("valid params")
}

/// What the flow derives from one design.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-window `hcb_logic()` as `(luts, registers, chain_and_luts)`.
    hcb_logic: Vec<(usize, usize, usize)>,
    hcb_depth: u32,
    prefix_registers: Vec<usize>,
    /// `implement()` totals as `(luts, registers)`.
    implemented: (usize, usize),
    verification: VerificationReport,
    /// FNV-1a over every emitted file's name and contents, in order.
    verilog: u64,
    /// FNV-1a over each window DAG's `width()`, `nodes()` and
    /// `outputs()` Debug text, in window order.
    dags: u64,
    /// What the default compile pipeline does to `compile_for_sim()`.
    work: Work,
}

/// The `PassStats` work counts of one default-pipeline compile.
#[derive(Debug, PartialEq)]
struct Work {
    tape_before: usize,
    tape_after: usize,
    cse_dedup_hits: usize,
    clause_ands_before: usize,
    clause_ands_after: usize,
    tape_ands: usize,
    sum_transposes: usize,
}

impl From<PassStats> for Work {
    fn from(stats: PassStats) -> Self {
        Work {
            tape_before: stats.tape_before,
            tape_after: stats.tape_after,
            cse_dedup_hits: stats.cse_dedup_hits,
            clause_ands_before: stats.clause_ands_before,
            clause_ands_after: stats.clause_ands_after,
            tape_ands: stats.tape_ands,
            sum_transposes: stats.sum_transposes,
        }
    }
}

/// One design point of a golden case.
struct Point {
    bus_width: usize,
    sharing: Sharing,
    pipelined: bool,
    /// Test samples streamed through the cycle engine.
    samples: usize,
    gate_vectors: usize,
    seed: u64,
}

fn observe(trained: &Trained, name: &str, point: &Point) -> Observed {
    let config = MatadorConfig::builder()
        .design_name(name)
        .bus_width(point.bus_width)
        .sharing(point.sharing)
        .pipeline_class_sum(point.pipelined)
        .build()
        .expect("valid config");
    let design = AcceleratorDesign::generate_with_threads(trained.model.clone(), config, 1);
    let report = design.implement();
    let samples = &trained.test[..point.samples];
    let verification =
        verify_design(&design, samples, point.gate_vectors, point.seed).expect("drains");
    let mut verilog = Vec::new();
    for file in design.emit_verilog().expect("generated designs emit") {
        verilog.extend_from_slice(file.name.as_bytes());
        verilog.extend_from_slice(file.contents.as_bytes());
    }
    Observed {
        hcb_logic: design
            .hcb_logic()
            .iter()
            .map(|h| (h.luts, h.registers, h.chain_and_luts))
            .collect(),
        hcb_depth: design.hcb_depth(),
        prefix_registers: prefix_register_counts(&trained.model, point.bus_width),
        implemented: (report.resources.luts(), report.resources.registers),
        verification,
        verilog: fnv1a(&verilog),
        dags: fnv1a(
            design
                .dags()
                .iter()
                .map(|d| format!("{:?}{:?}{:?}", d.width(), d.nodes(), d.outputs()))
                .collect::<String>()
                .as_bytes(),
        ),
        work: CompilePipeline::default()
            .compile(&design.compile_for_sim())
            .stats
            .into(),
    }
}

/// Checks every point of one case, returning a printable mismatch per
/// differing point (with the full observation, so a deliberate change
/// can be reviewed field by field).
fn check(trained: &Trained, case: &str, points: &[(Point, Observed)]) -> Vec<String> {
    points
        .iter()
        .filter_map(|(point, want)| {
            let name = format!("golden_{case}_w{}", point.bus_width);
            let got = observe(trained, &name, point);
            (got != *want).then(|| format!("{name} ({:?}): got {got:?}", point.sharing))
        })
        .collect()
}

fn report(gate_vectors: usize, system_vectors: usize, beats_observed: usize) -> VerificationReport {
    VerificationReport {
        gate_vectors,
        gate_mismatches: 0,
        system_vectors,
        system_mismatches: 0,
        beats_observed,
    }
}

#[test]
fn small_designs_match_their_golden_flow() {
    let kws = train(
        DatasetKind::Kws6,
        SplitSizes {
            train: 200,
            test: 24,
        },
        params(DatasetKind::Kws6, 60, 15, 5.0),
        2,
        2024,
    );
    let mut mismatches = check(
        &kws,
        "kws6",
        &[
            (
                Point {
                    bus_width: 64,
                    sharing: Sharing::Enabled,
                    pipelined: false,
                    samples: 24,
                    gate_vectors: 16,
                    seed: 0xD0_D0,
                },
                Observed {
                    hcb_logic: vec![
                        (145, 177, 7),
                        (156, 285, 3),
                        (134, 331, 4),
                        (153, 348, 3),
                        (139, 354, 4),
                        (127, 358, 7),
                    ],
                    hcb_depth: 4,
                    prefix_registers: vec![177, 285, 331, 348, 354, 358],
                    implemented: (1915, 2542),
                    verification: report(108, 24, 144),
                    verilog: 0xed3f_9d94_6a0c_0f9f,
                    dags: 0x9b55_7102_4431_056e,
                    work: Work {
                        tape_before: 1756,
                        tape_after: 1750,
                        cse_dedup_hits: 0,
                        clause_ands_before: 2160,
                        clause_ands_after: 1309,
                        tape_ands: 1027,
                        sum_transposes: 1,
                    },
                },
            ),
            (
                Point {
                    bus_width: 32,
                    sharing: Sharing::DontTouch,
                    pipelined: true,
                    samples: 16,
                    gate_vectors: 40,
                    seed: 3,
                },
                Observed {
                    hcb_logic: vec![
                        (92, 360, 131),
                        (77, 360, 156),
                        (95, 360, 141),
                        (88, 360, 158),
                        (91, 360, 137),
                        (89, 360, 146),
                        (84, 360, 149),
                        (82, 360, 145),
                        (90, 360, 133),
                        (82, 360, 142),
                        (107, 360, 152),
                        (67, 360, 114),
                    ],
                    hcb_depth: 4,
                    prefix_registers: vec![
                        88, 177, 242, 285, 311, 331, 344, 348, 352, 354, 355, 358,
                    ],
                    implemented: (3781, 5082),
                    verification: report(504, 16, 192),
                    verilog: 0x8f5f_fbb5_c7a8_be28,
                    dags: 0x4305_8a93_8f5a_1ffb,
                    work: Work {
                        tape_before: 1422,
                        tape_after: 1398,
                        cse_dedup_hits: 0,
                        clause_ands_before: 4320,
                        clause_ands_after: 1704,
                        tape_ands: 669,
                        sum_transposes: 1,
                    },
                },
            ),
        ],
    );

    let xor = train(
        DatasetKind::NoisyXor,
        SplitSizes {
            train: 120,
            test: 20,
        },
        params(DatasetKind::NoisyXor, 20, 10, 3.9),
        2,
        7,
    );
    mismatches.extend(check(
        &xor,
        "xor",
        &[
            (
                Point {
                    bus_width: 4,
                    sharing: Sharing::Enabled,
                    pipelined: true,
                    samples: 20,
                    gate_vectors: 32,
                    seed: 0xD0_D0,
                },
                Observed {
                    hcb_logic: vec![(16, 21, 0), (9, 35, 0), (9, 40, 0)],
                    hcb_depth: 3,
                    prefix_registers: vec![21, 35, 40],
                    implemented: (613, 778),
                    verification: report(102, 20, 60),
                    verilog: 0x5ff1_5fff_0e6e_01ce,
                    dags: 0x1767_0c53_a37d_2980,
                    work: Work {
                        tape_before: 57,
                        tape_after: 54,
                        cse_dedup_hits: 0,
                        clause_ands_before: 120,
                        clause_ands_after: 80,
                        tape_ands: 27,
                        sum_transposes: 1,
                    },
                },
            ),
            (
                Point {
                    bus_width: 5,
                    sharing: Sharing::DontTouch,
                    pipelined: false,
                    samples: 20,
                    gate_vectors: 100,
                    seed: 11,
                },
                Observed {
                    hcb_logic: vec![(31, 40, 32), (19, 40, 28), (2, 40, 13)],
                    hcb_depth: 3,
                    prefix_registers: vec![26, 39, 40],
                    implemented: (704, 781),
                    verification: report(306, 20, 60),
                    verilog: 0x7eaa_5758_67ee_a079,
                    dags: 0x6c8d_1559_c2b5_171f,
                    work: Work {
                        tape_before: 70,
                        tape_after: 65,
                        cse_dedup_hits: 0,
                        clause_ands_before: 120,
                        clause_ands_after: 74,
                        tape_ands: 37,
                        sum_transposes: 1,
                    },
                },
            ),
        ],
    ));
    assert!(
        mismatches.is_empty(),
        "golden flow mismatches: {mismatches:#?}"
    );
}

/// The MNIST design `perfbench` generates in `flow-mnist`: its model
/// (quick split, paper clause budget, T = 15, s = 5, 5 epochs, seed
/// 2024), its default configuration and its 32 gate vectors per window,
/// verified on 64 test samples at perfbench's held-out seed.
#[cfg(not(debug_assertions))]
#[test]
fn perfbench_mnist_design_matches_its_golden_flow() {
    let kind = DatasetKind::Mnist;
    let mnist = train(
        kind,
        SplitSizes::QUICK,
        params(kind, kind.paper_clauses_per_class(), 15, 5.0),
        5,
        2024,
    );
    let mismatches = check(
        &mnist,
        "mnist",
        &[(
            Point {
                bus_width: 64,
                sharing: Sharing::Enabled,
                pipelined: false,
                samples: 64,
                gate_vectors: 32,
                seed: 7_777_777,
            },
            Observed {
                hcb_logic: vec![
                    (359, 405, 21),
                    (372, 787, 12),
                    (359, 1070, 18),
                    (420, 1338, 14),
                    (403, 1528, 16),
                    (413, 1662, 10),
                    (403, 1762, 10),
                    (427, 1813, 12),
                    (424, 1850, 11),
                    (405, 1890, 14),
                    (367, 1914, 16),
                    (355, 1934, 16),
                    (52, 1937, 0),
                ],
                hcb_depth: 5,
                prefix_registers: vec![
                    405, 787, 1070, 1338, 1528, 1662, 1762, 1813, 1850, 1890, 1914, 1934, 1937,
                ],
                implemented: (7782, 20624),
                verification: report(442, 64, 832),
                verilog: 0x6935_c2d1_7d7c_5a90,
                dags: 0x2ecf_68b6_524c_1635,
                work: Work {
                    tape_before: 7722,
                    tape_after: 7709,
                    cse_dedup_hits: 0,
                    clause_ands_before: 26000,
                    clause_ands_after: 10148,
                    tape_ands: 6162,
                    sum_transposes: 3,
                },
            },
        )],
    );
    assert!(
        mismatches.is_empty(),
        "golden flow mismatches: {mismatches:#?}"
    );
}
