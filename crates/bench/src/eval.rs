//! Per-dataset evaluation drivers for both sides of Table I.

use crate::table::Table1Row;
use matador::config::MatadorConfig;
use matador::flow::{FlowOutcome, MatadorFlow, TrainSpec};
use matador_baselines::bnn::{QuantMlp, TrainConfig};
use matador_baselines::dataflow::DataflowDesign;
use matador_baselines::presets::BaselineKind;
use matador_datasets::{generate, Dataset, DatasetKind, SplitSizes};
use matador_synth::device::Device;
use matador_synth::power::{PowerModel, PowerReport};
use matador_synth::resources::ResourceReport;
use std::fmt;
use tsetlin::params::TmParams;

/// Error produced when harness command-line arguments are malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// `--seed` appeared without a following value.
    MissingSeedValue,
    /// The `--seed` value was not an unsigned integer.
    InvalidSeed {
        /// The offending token.
        token: String,
    },
    /// An unrecognized flag was passed.
    UnknownFlag {
        /// The offending flag.
        flag: String,
    },
    /// A stray positional argument was passed.
    UnexpectedArgument {
        /// The offending token.
        arg: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingSeedValue => write!(f, "--seed requires a value"),
            EvalError::InvalidSeed { token } => {
                write!(f, "--seed value '{token}' is not an unsigned integer")
            }
            EvalError::UnknownFlag { flag } => {
                write!(f, "unknown flag '{flag}' (expected --quick or --seed <n>)")
            }
            EvalError::UnexpectedArgument { arg } => {
                write!(
                    f,
                    "unexpected argument '{arg}' (expected --quick or --seed <n>)"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

// `EvalError` is local here, so this impl is coherent even though
// `matador::Error` is foreign: downstream harness code can `?` straight
// into the toolflow's unified error type.
impl From<EvalError> for matador::Error {
    fn from(e: EvalError) -> Self {
        matador::Error::other(e)
    }
}

/// Run sizing shared by all harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Dataset split sizes.
    pub sizes: SplitSizes,
    /// TM training epochs.
    pub tm_epochs: usize,
    /// Baseline (BNN/QNN) training epochs.
    pub bnn_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl EvalOptions {
    /// Full-size evaluation (the numbers quoted in `EXPERIMENTS.md`).
    pub fn full() -> Self {
        EvalOptions {
            sizes: SplitSizes::FULL,
            tm_epochs: 10,
            bnn_epochs: 8,
            seed: 2024,
        }
    }

    /// Reduced run for CI / smoke testing.
    pub fn quick() -> Self {
        EvalOptions {
            sizes: SplitSizes::QUICK,
            tm_epochs: 5,
            bnn_epochs: 4,
            seed: 2024,
        }
    }

    /// Parses `--quick` / `--seed <n>` from command-line arguments.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on an unknown flag or a missing/unparseable
    /// `--seed` value (previously these were silently ignored).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, EvalError> {
        let args: Vec<String> = args.into_iter().collect();
        let mut opts = if args.iter().any(|a| a == "--quick") {
            EvalOptions::quick()
        } else {
            EvalOptions::full()
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {}
                "--seed" => {
                    let token = args.get(i + 1).ok_or(EvalError::MissingSeedValue)?;
                    opts.seed = token.parse().map_err(|_| EvalError::InvalidSeed {
                        token: token.clone(),
                    })?;
                    i += 1;
                }
                flag if flag.starts_with('-') => {
                    return Err(EvalError::UnknownFlag {
                        flag: flag.to_string(),
                    });
                }
                arg => {
                    return Err(EvalError::UnexpectedArgument {
                        arg: arg.to_string(),
                    });
                }
            }
            i += 1;
        }
        Ok(opts)
    }
}

/// Wraps a malformed harness-flag diagnostic into the unified error type
/// — the single helper behind every flag error of the six serving
/// harnesses (`chaos_bench`, `infer_bench`, `loadgen`, `hetero_sweep`,
/// `serve_sweep`, `compile_bench`), which parse through
/// [`crate::harness::Flags`].
pub fn bad_arg(message: impl Into<String>) -> matador::Error {
    matador::Error::other(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        message.into(),
    ))
}

/// Parses a `--flag 1,2,4`-style comma-separated list of positive
/// integers, as the sweep harnesses take for `--shards` / `--batches`.
///
/// # Errors
///
/// Returns a [`bad_arg`] error when the value is empty or contains a
/// non-positive / unparseable entry.
pub fn parse_positive_list(flag: &str, value: &str) -> Result<Vec<usize>, matador::Error> {
    value
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad_arg(format!("{flag} entry '{tok}' is not a positive integer")))
        })
        .collect()
}

/// TM hyperparameters used for a dataset (Table II's right column plus the
/// training knobs the paper holds per-application).
pub fn tm_params_for(kind: DatasetKind) -> TmParams {
    let (threshold, specificity) = match kind {
        DatasetKind::Mnist => (15, 5.0),
        DatasetKind::Kmnist | DatasetKind::Fmnist => (15, 5.0),
        DatasetKind::Cifar2 => (30, 6.0),
        DatasetKind::Kws6 => (15, 5.0),
        DatasetKind::NoisyXor => (5, 4.0),
        DatasetKind::Iris => (5, 4.0),
    };
    TmParams::builder(kind.features(), kind.classes())
        .clauses_per_class(kind.paper_clauses_per_class())
        .threshold(threshold)
        .specificity(specificity)
        .build()
        .expect("per-dataset parameters are valid by construction")
}

/// One MATADOR Table I row, fully measured.
#[derive(Debug, Clone)]
pub struct MatadorRow {
    /// Which dataset.
    pub kind: DatasetKind,
    /// The complete flow outcome (design, reports, verification).
    pub outcome: FlowOutcome,
}

/// Runs the full MATADOR flow for `kind`.
///
/// # Errors
///
/// Propagates [`matador::Error`] from the flow (degenerate split sizes,
/// simulator drain failures).
pub fn run_matador(kind: DatasetKind, opts: &EvalOptions) -> Result<MatadorRow, matador::Error> {
    run_matador_with_threads(kind, opts, matador_par::configured_threads())
}

/// [`run_matador`] with an explicit worker-thread count for the flow's
/// training/generation stages — used by drivers that already parallelize
/// across dataset rows and want to split the thread budget rather than
/// oversubscribe cores. The produced row never depends on `threads`.
///
/// The row is one [`MatadorFlow::run`]: it trains the TM with
/// [`tm_params_for`] at `opts.tm_epochs` and `opts.seed`, then generates,
/// implements and verifies the design on up to 64 test samples.
///
/// # Errors
///
/// Propagates [`matador::Error`] from the flow (an empty or ill-fitting
/// training split, an empty test split, simulator drain failures).
pub fn run_matador_with_threads(
    kind: DatasetKind,
    opts: &EvalOptions,
    threads: usize,
) -> Result<MatadorRow, matador::Error> {
    let data = generate(kind, opts.sizes, opts.seed);
    let config = MatadorConfig::builder()
        .design_name(format!("matador_{}", kind.to_string().to_lowercase()))
        .build()
        .expect("default configuration is valid");
    let outcome = MatadorFlow::new(config)
        .verify_limit(Some(64))
        .threads(threads)
        .run(
            TrainSpec {
                params: tm_params_for(kind),
                epochs: opts.tm_epochs,
                seed: opts.seed,
            },
            &data.train,
            &data.test,
        )?;
    Ok(MatadorRow { kind, outcome })
}

/// One baseline Table I row.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Which baseline configuration.
    pub kind: BaselineKind,
    /// The folded dataflow design.
    pub design: DataflowDesign,
    /// Resources of the folded design.
    pub resources: ResourceReport,
    /// Power at the design clock.
    pub power: PowerReport,
    /// Test accuracy of the trained quantized network.
    pub test_accuracy: f64,
}

/// Trains the baseline network on `data` and models its FINN dataflow
/// implementation.
pub fn run_baseline(kind: BaselineKind, data: &Dataset, opts: &EvalOptions) -> BaselineRow {
    let design = kind.design();
    let resources = design.resources();
    let device = match kind {
        BaselineKind::BnnRRef | BaselineKind::BnnFRef => Device::zc706(),
        _ => Device::xc7z020(),
    };
    let power = PowerModel::default().estimate(&device, &resources, design.clock_mhz);

    let mut net = QuantMlp::new(kind.topology(), opts.seed ^ 0xF1);
    net.train(
        &data.train,
        TrainConfig {
            learning_rate: 0.03,
            epochs: opts.bnn_epochs,
            float_fraction: 0.0,
        },
        opts.seed ^ 0xF2,
    );
    let test_accuracy = net.accuracy(&data.test);
    BaselineRow {
        kind,
        design,
        resources,
        power,
        test_accuracy,
    }
}

/// Builds every Table I group for `kinds`: the MATADOR flow, the paired
/// FINN baseline, and (on MNIST) the BNN-r/f references.
///
/// Dataset rows are independent, so they run on
/// [`matador_par::configured_threads`] worker threads (one row — train,
/// generate, implement, verify — per work item), while the output keeps
/// the order of `kinds`. The thread budget is split between the row
/// fan-out and each row's inner training/generation parallelism, so
/// nesting never oversubscribes the machine. With per-row seeding fixed
/// by `opts.seed`, the produced rows are bit-identical at every thread
/// count; the `parallel_equivalence` suite asserts this.
///
/// # Errors
///
/// Propagates the first [`matador::Error`] any row produces.
///
/// # Panics
///
/// Panics if a generated design fails verification — hardware that is not
/// bit-equivalent to its model is a toolflow bug, not an input error.
pub fn run_table1(
    kinds: &[DatasetKind],
    opts: &EvalOptions,
) -> Result<Vec<(String, Vec<Table1Row>)>, matador::Error> {
    let budget = matador_par::configured_threads();
    let row_workers = budget.min(kinds.len().max(1));
    let inner_threads = (budget / row_workers).max(1);
    let groups: Vec<Result<(String, Vec<Table1Row>), matador::Error>> =
        matador_par::par_map_with(row_workers, kinds, |&kind| {
            eprintln!("[table1] {kind}: training TM + generating accelerator…");
            let matador_row = run_matador_with_threads(kind, opts, inner_threads)?;
            assert!(
                matador_row.outcome.verification.passed(),
                "{kind}: generated design failed verification"
            );
            let data = generate(kind, opts.sizes, opts.seed);
            eprintln!("[table1] {kind}: training baseline + folding FINN dataflow…");
            let finn = run_baseline(baseline_for(kind), &data, opts);

            let mut rows = Vec::new();
            if kind == DatasetKind::Mnist {
                // The paper also quotes the ZC706 BNN references on MNIST.
                for bnn in [BaselineKind::BnnRRef, BaselineKind::BnnFRef] {
                    rows.push(Table1Row::from_baseline(&run_baseline(bnn, &data, opts)));
                }
            }
            rows.push(Table1Row::from_baseline(&finn));
            rows.push(Table1Row::from_matador(&matador_row));
            Ok((kind.to_string(), rows))
        });
    groups.into_iter().collect()
}

/// The baseline configuration paired with each dataset row of Table I.
pub fn baseline_for(kind: DatasetKind) -> BaselineKind {
    match kind {
        DatasetKind::Mnist => BaselineKind::FinnMnist,
        DatasetKind::Kws6 => BaselineKind::FinnKws6,
        DatasetKind::Cifar2 => BaselineKind::FinnCifar2,
        DatasetKind::Fmnist => BaselineKind::FinnFmnist,
        DatasetKind::Kmnist => BaselineKind::FinnKmnist,
        DatasetKind::NoisyXor | DatasetKind::Iris => BaselineKind::FinnMnist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_from_args() {
        let quick = EvalOptions::from_args(["--quick".to_string()]).expect("valid");
        assert_eq!(quick.sizes, SplitSizes::QUICK);
        let seeded =
            EvalOptions::from_args(["--seed".to_string(), "7".to_string()]).expect("valid");
        assert_eq!(seeded.seed, 7);
        assert_eq!(seeded.sizes, SplitSizes::FULL);
    }

    #[test]
    fn bad_args_yield_typed_errors() {
        assert_eq!(
            EvalOptions::from_args(["--seed".to_string()]).unwrap_err(),
            EvalError::MissingSeedValue
        );
        assert_eq!(
            EvalOptions::from_args(["--seed".to_string(), "abc".to_string()]).unwrap_err(),
            EvalError::InvalidSeed {
                token: "abc".to_string()
            }
        );
        assert_eq!(
            EvalOptions::from_args(["--bogus".to_string()]).unwrap_err(),
            EvalError::UnknownFlag {
                flag: "--bogus".to_string()
            }
        );
        // A typo'd positional (e.g. `quick` for `--quick`) is rejected too.
        assert_eq!(
            EvalOptions::from_args(["quick".to_string()]).unwrap_err(),
            EvalError::UnexpectedArgument {
                arg: "quick".to_string()
            }
        );
        // The typed error converges into the unified flow error.
        let err: matador::Error = EvalOptions::from_args(["--bogus".to_string()])
            .unwrap_err()
            .into();
        assert!(matches!(err, matador::Error::Other(_)));
    }

    #[test]
    fn positive_list_parsing_is_shared_and_typed() {
        assert_eq!(
            parse_positive_list("--shards", "1, 2,8").expect("valid"),
            vec![1, 2, 8]
        );
        for bad in ["", "1,0", "x"] {
            let err = parse_positive_list("--shards", bad).unwrap_err();
            assert!(err.to_string().contains("--shards"), "{err}");
        }
    }

    #[test]
    fn params_match_table_ii_budgets() {
        assert_eq!(tm_params_for(DatasetKind::Mnist).clauses_per_class(), 200);
        assert_eq!(tm_params_for(DatasetKind::Cifar2).clauses_per_class(), 1000);
    }

    #[test]
    fn baseline_pairing() {
        assert_eq!(baseline_for(DatasetKind::Kws6), BaselineKind::FinnKws6);
    }

    #[test]
    fn quick_matador_run_on_smallest_dataset() {
        // End-to-end smoke: the 6-packet KWS design through the whole flow
        // at tiny sizes.
        let mut opts = EvalOptions::quick();
        opts.sizes = SplitSizes {
            train: 120,
            test: 60,
        };
        opts.tm_epochs = 2;
        let row = run_matador(DatasetKind::Kws6, &opts).expect("flow succeeds");
        assert!(row.outcome.verification.passed());
        assert_eq!(row.outcome.design.num_hcbs(), 6);
        assert_eq!(row.outcome.latency.initial_latency_cycles, 9); // 6 + 3
    }
}
