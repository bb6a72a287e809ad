//! The end-to-end MATADOR flow (Fig 6, pink path): train (or import) a
//! Tsetlin Machine, generate the accelerator, implement it, verify it and
//! characterize latency/throughput.

use crate::config::MatadorConfig;
use crate::design::AcceleratorDesign;
use crate::verify::{verify_compiled, VerificationReport};
use matador_sim::LatencyReport;
use matador_synth::report::ImplementationReport;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use tsetlin::bits::BitVec;
use tsetlin::model::TrainedModel;
use tsetlin::params::{SampleError, TmParams};
use tsetlin::tm::MultiClassTm;
use tsetlin::Sample;

/// Degenerate flow inputs rejected before any training or generation
/// happens (previously these panicked deep inside `MultiClassTm::fit` or
/// the cycle simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowError {
    /// [`MatadorFlow::run`] was given an empty training set.
    EmptyTrainingSet,
    /// [`MatadorFlow::run`] was given a training sample that does not fit
    /// the machine (label out of range or wrong input width); the error
    /// names the sample's index and the offending value.
    InvalidTrainingSample(SampleError),
    /// [`MatadorFlow::run_with_model`] was given an empty test set, so
    /// there is nothing to verify or characterize against.
    EmptyTestSet,
    /// [`MatadorFlow::run_with_model`] was given a test sample whose input
    /// width differs from the model's feature count; the error names the
    /// sample's index and width.
    InvalidTestSample(SampleError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptyTrainingSet => write!(f, "flow requires a non-empty training set"),
            FlowError::InvalidTrainingSample(e) => write!(f, "invalid training set: {e}"),
            FlowError::EmptyTestSet => write!(f, "flow requires a non-empty test set"),
            FlowError::InvalidTestSample(e) => write!(f, "invalid test set: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::InvalidTrainingSample(e) | FlowError::InvalidTestSample(e) => Some(e),
            FlowError::EmptyTrainingSet | FlowError::EmptyTestSet => None,
        }
    }
}

/// Training inputs for the flow.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// TM hyperparameters.
    pub params: TmParams,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed (training is stochastic; runs are reproducible per seed).
    pub seed: u64,
}

/// Everything the flow produces for one run.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The trained (or imported) model.
    pub model: TrainedModel,
    /// The partitioned design.
    pub design: AcceleratorDesign,
    /// Implementation (resources / timing / power) report.
    pub implementation: ImplementationReport,
    /// Verification report.
    pub verification: VerificationReport,
    /// Measured latency/throughput from cycle simulation.
    pub latency: LatencyReport,
    /// Test accuracy of the model (= deployed accuracy: hardware is
    /// verified bit-equivalent).
    pub test_accuracy: f64,
}

impl FlowOutcome {
    /// Latency in microseconds at the implemented clock.
    pub fn latency_us(&self) -> f64 {
        self.latency.latency_us(self.implementation.clock_mhz)
    }

    /// Throughput in inferences/second at the implemented clock.
    pub fn throughput_inf_s(&self) -> f64 {
        self.latency.throughput_inf_s(self.implementation.clock_mhz)
    }
}

/// Orchestrates the full flow.
///
/// # Examples
///
/// ```no_run
/// use matador::flow::{MatadorFlow, TrainSpec};
/// use matador::config::MatadorConfig;
/// use matador_datasets::{generate, DatasetKind, SplitSizes};
/// use tsetlin::params::TmParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = generate(DatasetKind::Kws6, SplitSizes::QUICK, 7);
/// let params = TmParams::builder(377, 6).clauses_per_class(60).build()?;
/// let config = MatadorConfig::builder().build()?;
/// let outcome = MatadorFlow::new(config)
///     .run(TrainSpec { params, epochs: 5, seed: 1 }, &data.train, &data.test)?;
/// assert!(outcome.verification.passed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatadorFlow {
    config: MatadorConfig,
    /// Gate-level vectors per window during verification.
    gate_vectors: usize,
    /// Datapoints streamed during verification/measurement (caps cost on
    /// large test sets; `None` = all).
    verify_limit: Option<usize>,
    /// Worker threads for training/generation (`None` = the
    /// `MATADOR_THREADS`/available-parallelism default).
    threads: Option<usize>,
}

impl MatadorFlow {
    /// Creates a flow with default verification effort (32 vectors per
    /// window, up to 256 streamed datapoints).
    pub fn new(config: MatadorConfig) -> Self {
        MatadorFlow {
            config,
            gate_vectors: 32,
            verify_limit: Some(256),
            threads: None,
        }
    }

    /// Sets gate-level vector count per window.
    pub fn gate_vectors(mut self, vectors: usize) -> Self {
        self.gate_vectors = vectors;
        self
    }

    /// Caps (or uncaps) the number of datapoints streamed in verification.
    pub fn verify_limit(mut self, limit: Option<usize>) -> Self {
        self.verify_limit = limit;
        self
    }

    /// Overrides the worker-thread count used for training and design
    /// generation (default: [`matador_par::configured_threads`]).
    ///
    /// Results never depend on this — drivers that already parallelize
    /// *across* flows (e.g. the `table1` harness) set it to split the
    /// thread budget instead of oversubscribing cores with nested
    /// fan-out.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(matador_par::configured_threads)
    }

    /// Trains a fresh model then continues with [`MatadorFlow::run_with_model`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyTrainingSet`] (as [`crate::Error::Flow`])
    /// when `train` is empty, [`FlowError::InvalidTrainingSample`] when a
    /// sample's label or input width does not fit `spec.params` (the
    /// check training itself makes, [`TmParams::check_samples`]), plus
    /// every error [`MatadorFlow::run_with_model`] can produce.
    pub fn run(
        &self,
        spec: TrainSpec,
        train: &[Sample],
        test: &[Sample],
    ) -> Result<FlowOutcome, crate::Error> {
        if train.is_empty() {
            return Err(FlowError::EmptyTrainingSet.into());
        }
        spec.params
            .check_samples(train)
            .map_err(FlowError::InvalidTrainingSample)?;
        let mut tm = MultiClassTm::new(spec.params);
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        tm.fit_with_threads(train, spec.epochs, &mut rng, self.effective_threads());
        self.run_with_model(tm.to_model(), test)
    }

    /// Runs the hardware half of the flow on an existing model — the
    /// import path (Fig 6, yellow) for models trained outside MATADOR.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyTestSet`] when `test` is empty,
    /// [`FlowError::InvalidTestSample`] when a test sample's input width
    /// differs from the model's feature count, and propagates
    /// [`matador_sim::SimError`] (as [`crate::Error::Sim`]) should the
    /// cycle simulator fail to drain during verification or latency
    /// characterization.
    pub fn run_with_model(
        &self,
        model: TrainedModel,
        test: &[Sample],
    ) -> Result<FlowOutcome, crate::Error> {
        if test.is_empty() {
            return Err(FlowError::EmptyTestSet.into());
        }
        let features = model.num_features();
        if let Some(index) = test.iter().position(|s| s.input.len() != features) {
            return Err(FlowError::InvalidTestSample(SampleError::WidthMismatch {
                index,
                width: test[index].input.len(),
                features,
            })
            .into());
        }
        let design = AcceleratorDesign::generate_with_threads(
            model.clone(),
            self.config.clone(),
            self.effective_threads(),
        );
        let implementation = design.implement();

        let verify_len = self
            .verify_limit
            .map_or(test.len(), |limit| limit.min(test.len()));
        let (verify_set, rest) = test.split_at(verify_len);
        // One compiled accelerator and one cycle-engine run serve both
        // verification and the latency report.
        let accel = design.compile_for_sim();
        let verified = verify_compiled(&design, &accel, verify_set, self.gate_vectors, 0xD0_D0)?;

        // Latency characterization: the first (up to) 64 results of the
        // verification run, which streamed back-to-back from cycle 0 on
        // a fresh engine.
        let latency = match &verified.results[..verified.results.len().min(64)] {
            [] => LatencyReport {
                initial_latency_cycles: 0,
                steady_ii_cycles: design.num_hcbs() as f64,
            },
            batch => LatencyReport::from_results(batch, 0),
        };

        // Software inference ran once per verified sample already; only
        // the test samples past the verification limit still need it.
        let rest_inputs: Vec<BitVec> = rest.iter().map(|s| s.input.clone()).collect();
        let rest_predictions = model.predict_batch(&rest_inputs);
        let correct = verify_set
            .iter()
            .chain(rest)
            .zip(verified.predictions.iter().chain(&rest_predictions))
            .filter(|(s, &p)| p == s.label)
            .count();
        let test_accuracy = correct as f64 / test.len() as f64;
        let verification = verified.report;
        Ok(FlowOutcome {
            model,
            design,
            implementation,
            verification,
            latency,
            test_accuracy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_serve::{DispatchPolicy, EngineBackend, ServeOptions, ShardPool, ShardSpec};
    use matador_sim::{CompileOptions, CompilePipeline, SimError};
    use tsetlin::bits::BitVec;

    fn tiny_task() -> (Vec<Sample>, Vec<Sample>) {
        let mut train = Vec::new();
        for i in 0..40 {
            let class = i % 2;
            let bits: Vec<usize> = if class == 0 {
                vec![0, 1, 2]
            } else {
                vec![8, 9, 10]
            };
            train.push(Sample::new(BitVec::from_indices(12, &bits), class));
        }
        let test = train.split_off(28);
        (train, test)
    }

    fn spec() -> TrainSpec {
        TrainSpec {
            params: TmParams::builder(12, 2)
                .clauses_per_class(8)
                .threshold(4)
                .specificity(3.5)
                .states_per_action(24)
                .build()
                .expect("valid"),
            epochs: 30,
            seed: 5,
        }
    }

    #[test]
    fn end_to_end_flow_passes() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .design_name("flow_test")
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        assert!(outcome.verification.passed(), "{:?}", outcome.verification);
        assert!(outcome.test_accuracy > 0.9, "acc {}", outcome.test_accuracy);
        assert_eq!(outcome.design.num_hcbs(), 3);
        // Latency = packets + 3 at back-to-back streaming.
        assert_eq!(outcome.latency.initial_latency_cycles, 6);
        assert!((outcome.latency.steady_ii_cycles - 3.0).abs() < 1e-9);
        assert!(outcome.throughput_inf_s() > 0.0);
        assert!(outcome.latency_us() > 0.0);
    }

    #[test]
    fn pipelined_flow_verifies_with_one_extra_cycle() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .pipeline_class_sum(true)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        assert!(outcome.verification.passed(), "{:?}", outcome.verification);
        // Latency = packets + 4 with the split class sum; II unchanged.
        assert_eq!(outcome.latency.initial_latency_cycles, 7);
        assert!((outcome.latency.steady_ii_cycles - 3.0).abs() < 1e-9);
    }

    #[test]
    fn import_path_skips_training() {
        let (_, test) = tiny_task();
        let params = spec().params;
        let model = MultiClassTm::new(params).to_model();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run_with_model(model, &test)
            .expect("flow succeeds");
        // Untrained model: accuracy is chance-level but the hardware is
        // still bit-equivalent to it.
        assert!(outcome.verification.passed());
    }

    #[test]
    fn verify_limit_caps_streamed_vectors() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .verify_limit(Some(4))
            .gate_vectors(2)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        assert_eq!(outcome.verification.system_vectors, 4);
    }

    #[test]
    fn latency_and_accuracy_match_separate_runs() {
        let (train, test) = tiny_task();
        // 96 test samples: the latency prefix caps at 64 and the limits
        // below leave samples that only the accuracy count reads.
        let test: Vec<Sample> = test.iter().cycle().take(96).cloned().collect();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let trained = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds")
            .model;
        let untrained = MultiClassTm::new(spec().params).to_model();
        for model in [trained, untrained] {
            for pipelined in [false, true] {
                let config = MatadorConfig::builder()
                    .bus_width(4)
                    .pipeline_class_sum(pipelined)
                    .build()
                    .expect("valid");
                for limit in [Some(0), Some(1), Some(5), Some(80), None] {
                    let outcome = MatadorFlow::new(config.clone())
                        .verify_limit(limit)
                        .run_with_model(model.clone(), &test)
                        .expect("flow succeeds");
                    assert_eq!(outcome.test_accuracy, model.accuracy(&test), "{limit:?}");

                    // A fresh engine streaming the first min(verified, 64)
                    // samples back-to-back, as a separate latency run would.
                    let verified = limit.unwrap_or(test.len()).min(test.len());
                    let batch: Vec<BitVec> = test[..verified.min(64)]
                        .iter()
                        .map(|s| s.input.clone())
                        .collect();
                    let expect = if batch.is_empty() {
                        LatencyReport {
                            initial_latency_cycles: 0,
                            steady_ii_cycles: outcome.design.num_hcbs() as f64,
                        }
                    } else {
                        let accel = outcome.design.compile_for_sim();
                        let mut sim = matador_sim::SimEngine::new(&accel);
                        sim.set_pipelined_sum(pipelined);
                        LatencyReport::from_results(&sim.run_datapoints(&batch).unwrap(), 0)
                    };
                    assert_eq!(outcome.latency, expect, "{limit:?} pipelined={pipelined}");
                    assert_eq!(outcome.verification.system_vectors, verified);
                }
            }
        }
    }

    #[test]
    fn flow_outcome_serves_over_shards() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        let accel = outcome.design.compile_for_sim();

        // Zero shards is rejected through the unified error type.
        let err: crate::Error = ShardPool::with_options(&accel, ServeOptions::new(0))
            .expect_err("zero shards rejected")
            .into();
        assert!(matches!(
            err,
            crate::Error::Serve(matador_serve::ServeError::ZeroShards)
        ));

        // Sharding never changes predictions, only pool wall-clock.
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();
        let mut winners = Vec::new();
        let mut pool_cycles = Vec::new();
        for shards in [1usize, 4] {
            let mut pool =
                ShardPool::with_options(&accel, ServeOptions::new(shards)).expect("valid pool");
            let preds = pool.serve(&batch).expect("drains");
            winners.push(preds.iter().map(|p| p.winner).collect::<Vec<_>>());
            pool_cycles.push(pool.report().pool_cycles);
        }
        assert_eq!(winners[0], winners[1]);
        assert!(
            pool_cycles[1] < pool_cycles[0],
            "4 shards {} !< 1 shard {}",
            pool_cycles[1],
            pool_cycles[0]
        );
        // The software model agrees with every served prediction.
        for (x, &w) in batch.iter().zip(&winners[0]) {
            assert_eq!(w, outcome.model.predict(x));
        }
    }

    #[test]
    fn turbo_serving_is_bit_identical_to_cycle_accurate() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .pipeline_class_sum(true) // both backends must model this
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        let accel = outcome.design.compile_for_sim();
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();

        // One shard, so the comparison covers shard attribution and
        // per-shard stats too (on several shards a turbo pool would
        // consolidate this small batch — a different schedule; the pool
        // tests pin multi-shard assignments).
        let options = ServeOptions {
            pipelined_sum: outcome.design.config().pipeline_class_sum(),
            ..ServeOptions::new(1)
        };
        assert!(options.pipelined_sum);
        let mut cycle = ShardPool::with_options(&accel, options).expect("valid pool");
        let turbo_options = ServeOptions {
            backend: EngineBackend::Turbo,
            ..options
        };
        let mut turbo = ShardPool::with_options(&accel, turbo_options).expect("valid pool");
        let from_cycle = cycle.serve(&batch).expect("drains");
        let from_turbo = turbo.serve(&batch).expect("infallible");
        // Same predictions, latencies and per-shard stream statistics —
        // the turbo backend is observationally identical under serving.
        assert_eq!(from_turbo, from_cycle);
        assert_eq!(turbo.report(), cycle.report());
    }

    #[test]
    fn heterogeneous_serving_mixes_bus_widths_without_changing_answers() {
        let (train, test) = tiny_task();
        let outcome_for = |bus_width: usize| {
            let config = MatadorConfig::builder()
                .bus_width(bus_width)
                .design_name(format!("flow_hetero_w{bus_width}"))
                .build()
                .expect("valid");
            MatadorFlow::new(config)
                .run(spec(), &train, &test)
                .expect("flow succeeds")
        };
        let wide = outcome_for(6);
        let narrow = outcome_for(2);
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();

        // Same model on two bus widths behind one pool: every request
        // gets the model's answer, whichever shard serves it.
        let specs = vec![
            ShardSpec::new(wide.design.compile_for_sim()),
            ShardSpec::new(narrow.design.compile_for_sim()),
        ];
        let options = ServeOptions {
            policy: DispatchPolicy::LatencyAware,
            ..ServeOptions::new(1)
        };
        let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid pool");
        let preds = pool.serve(&batch).expect("drains");
        for (x, p) in batch.iter().zip(&preds) {
            assert_eq!(p.winner, wide.model.predict(x));
        }
        // Latency-aware dispatch sends more of the batch to the 2-packet
        // wide-bus shard than the 6-packet narrow-bus one.
        let to_wide = preds.iter().filter(|p| p.shard == 0).count();
        assert!(
            to_wide > preds.len() / 2,
            "wide shard got {to_wide}/{}",
            preds.len()
        );

        // Width-aware admission stays typed at the flow level too. Both
        // shards share one feature width here, so the precise
        // single-width diagnostic applies (mixed-width pools report
        // `NoCompatibleShard`; see the serve crate's tests).
        let err = pool
            .serve(&[BitVec::zeros(5)])
            .expect_err("no shard takes width 5");
        assert!(matches!(
            err,
            matador_serve::ServeError::WidthMismatch {
                expected: 12,
                got: 5
            }
        ));
    }

    #[test]
    fn partitioned_serving_matches_monolithic() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        let accel = outcome.design.compile_for_sim();
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();
        let options = ServeOptions {
            capture_class_sums: true,
            ..ServeOptions::new(1)
        };

        let mut mono = ShardPool::with_options(&accel, options).expect("valid pool");
        let expected = mono.serve(&batch).expect("drains");

        // The same design split into two cooperating shards: one logical
        // model, every winner and merged class-sum vector identical.
        let plan =
            CompilePipeline::new(CompileOptions::default().with_partitions(2)).partition(&accel);
        let specs = ShardSpec::partitioned(plan, 0);
        assert_eq!(specs.len(), 2);
        let mut split = ShardPool::heterogeneous(&specs, options).expect("valid pool");
        let preds = split.serve(&batch).expect("drains");
        assert_eq!(preds.len(), expected.len());
        for (p, e) in preds.iter().zip(&expected) {
            assert_eq!(p.winner, e.winner);
            assert_eq!(p.class_sums, e.class_sums);
            // The group's lead member carries the attribution.
            assert_eq!(p.shard, 0);
        }
    }

    #[test]
    fn empty_training_set_is_a_typed_error() {
        let (_, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let err = MatadorFlow::new(config)
            .run(spec(), &[], &test)
            .expect_err("empty training set must be rejected");
        assert!(matches!(
            err,
            crate::Error::Flow(FlowError::EmptyTrainingSet)
        ));
        assert!(err.to_string().contains("training set"));
    }

    #[test]
    fn out_of_range_label_is_a_typed_error() {
        let (mut train, test) = tiny_task();
        train[5].label = 7;
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let err = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect_err("a label past the class count must be rejected");
        assert!(matches!(
            err,
            crate::Error::Flow(FlowError::InvalidTrainingSample(
                SampleError::LabelOutOfRange {
                    index: 5,
                    label: 7,
                    classes: 2
                }
            ))
        ));
        assert!(err.to_string().contains("sample 5"), "{err}");
    }

    #[test]
    fn wrong_input_width_is_a_typed_error() {
        let (mut train, test) = tiny_task();
        train[9].input = BitVec::zeros(11);
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let err = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect_err("an input of the wrong width must be rejected");
        assert!(matches!(
            err,
            crate::Error::Flow(FlowError::InvalidTrainingSample(
                SampleError::WidthMismatch {
                    index: 9,
                    width: 11,
                    features: 12
                }
            ))
        ));
        assert!(err.to_string().contains("sample 9"), "{err}");
    }

    #[test]
    fn wrong_test_width_is_a_typed_error() {
        let (train, mut test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let flow = MatadorFlow::new(config);
        let outcome = flow.run(spec(), &train, &test).expect("flow succeeds");
        test[5].input = BitVec::zeros(11);

        // The cycle engine rejects the batch instead of panicking.
        let err = crate::verify::verify_design(&outcome.design, &test, 4, 1)
            .expect_err("an 11-bit sample cannot stream into a 12-feature design");
        assert_eq!(
            err,
            SimError::InputWidth {
                index: 5,
                expected: 12,
                got: 11
            }
        );

        // The flow checks the whole test set, including samples past the
        // verification limit that only the accuracy count reads.
        for limit in [None, Some(2)] {
            let err = flow
                .clone()
                .verify_limit(limit)
                .run_with_model(outcome.model.clone(), &test)
                .expect_err("an input of the wrong width must be rejected");
            assert!(matches!(
                err,
                crate::Error::Flow(FlowError::InvalidTestSample(SampleError::WidthMismatch {
                    index: 5,
                    width: 11,
                    features: 12
                }))
            ));
            assert!(
                err.to_string().contains("invalid test set: sample 5"),
                "{err}"
            );
        }
    }

    #[test]
    fn empty_test_set_is_a_typed_error() {
        let (train, _) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let err = MatadorFlow::new(config)
            .run(spec(), &train, &[])
            .expect_err("empty test set must be rejected");
        assert!(matches!(err, crate::Error::Flow(FlowError::EmptyTestSet)));
    }
}
