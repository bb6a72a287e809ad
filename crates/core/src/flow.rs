//! The end-to-end MATADOR flow (Fig 6, pink path): train (or import) a
//! Tsetlin Machine, generate the accelerator, implement it, verify it and
//! characterize latency/throughput.

use crate::config::MatadorConfig;
use crate::design::AcceleratorDesign;
use crate::verify::{verify_design, VerificationReport};
use matador_serve::{DispatchPolicy, EngineBackend, ServeOptions, ServeSession, ShardSpec};
use matador_sim::{CompileOptions, CompilePipeline, LatencyReport, SimEngine};
use matador_synth::report::ImplementationReport;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use tsetlin::model::TrainedModel;
use tsetlin::params::TmParams;
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
    /// [`MatadorFlow::run_with_model`] was given an empty test set, so
    /// there is nothing to verify or characterize against.
    EmptyTestSet,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::EmptyTrainingSet => write!(f, "flow requires a non-empty training set"),
            FlowError::EmptyTestSet => write!(f, "flow requires a non-empty test set"),
        }
    }
}

impl std::error::Error for FlowError {}

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

    /// Starts configuring a serving runtime over this design — the one
    /// entry point for every pool shape the serving stack offers:
    ///
    /// ```no_run
    /// # use matador::flow::{MatadorFlow, TrainSpec};
    /// # use matador::config::MatadorConfig;
    /// use matador_serve::{DispatchPolicy, EngineBackend};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let outcome: matador::flow::FlowOutcome = unimplemented!();
    /// // Four replicated turbo shards with latency-aware dispatch.
    /// let session = outcome
    ///     .serving()
    ///     .shards(4)
    ///     .backend(EngineBackend::Turbo)
    ///     .policy(DispatchPolicy::LatencyAware)
    ///     .build()?;
    ///
    /// // The design clause-partitioned across two cooperating shards.
    /// let partitioned = outcome.serving().partitions(2).build()?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// The builder starts from the design's own defaults (its class-sum
    /// pipelining, one cycle-accurate shard, round-robin dispatch) and
    /// ends with [`ServeBuilder::build`].
    pub fn serving(&self) -> ServeBuilder<'_> {
        ServeBuilder {
            outcome: self,
            options: ServeOptions {
                pipelined_sum: self.design.config().pipeline_class_sum(),
                ..ServeOptions::new(1)
            },
            policy_overridden: false,
            specs: None,
            partitions: 1,
        }
    }

    /// This outcome's design as one shard of a heterogeneous pool:
    /// compiled for simulation, inheriting the design's class-sum
    /// pipelining, cycle-accurate backend, dispatch weight 1. Adjust with
    /// the [`ShardSpec`] builder methods
    /// (`.backend(…)`, `.weight(…)`) before pooling.
    pub fn shard_spec(&self) -> ShardSpec {
        ShardSpec::new(self.design.compile_for_sim())
            .pipelined_sum(self.design.config().pipeline_class_sum())
    }
}

/// Fluent configuration of a serving runtime over one [`FlowOutcome`],
/// started by [`FlowOutcome::serving`] and finished by
/// [`ServeBuilder::build`].
///
/// Three pool shapes, by precedence:
///
/// 1. [`ServeBuilder::specs`] — a heterogeneous pool of explicit
///    [`ShardSpec`]s (dispatch defaults to
///    [`DispatchPolicy::LatencyAware`] unless a policy was chosen).
/// 2. [`ServeBuilder::partitions`] — this design clause-partitioned by
///    the compile pipeline into cooperating shards that merge partial
///    class sums, bit-identical to the monolithic pool.
/// 3. Otherwise — a homogeneous pool of [`ServeBuilder::shards`]
///    replicas of this design.
#[derive(Debug, Clone)]
pub struct ServeBuilder<'a> {
    outcome: &'a FlowOutcome,
    options: ServeOptions,
    /// Whether [`ServeBuilder::policy`] or [`ServeBuilder::options`] was
    /// called — gates the heterogeneous latency-aware default.
    policy_overridden: bool,
    specs: Option<Vec<ShardSpec>>,
    partitions: usize,
}

impl ServeBuilder<'_> {
    /// Pool size for the homogeneous (replicated) shape. Ignored when
    /// [`ServeBuilder::specs`] or [`ServeBuilder::partitions`] decides
    /// the shard count instead.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.options.shards = shards;
        self
    }

    /// Execution backend for replicated or partitioned shards
    /// ([`EngineBackend::Turbo`] is bit-identical to
    /// [`EngineBackend::CycleAccurate`], only faster on the host).
    /// Explicit specs carry their own backend instead.
    #[must_use]
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Dispatch policy. Choosing one explicitly also opts a spec pool
    /// out of its [`DispatchPolicy::LatencyAware`] default.
    #[must_use]
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.options.policy = policy;
        self.policy_overridden = true;
        self
    }

    /// Bounded request-queue depth (typed backpressure beyond it).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.options.queue_depth = depth;
        self
    }

    /// Whether predictions carry per-class vote sums.
    #[must_use]
    pub fn capture_class_sums(mut self, capture: bool) -> Self {
        self.options.capture_class_sums = capture;
        self
    }

    /// Worker threads for shard fan-out (results never depend on this).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = Some(threads);
        self
    }

    /// Replaces the accumulated options wholesale — the escape hatch for
    /// callers holding a ready-made [`ServeOptions`] (note this drops
    /// the design-derived pipelining default and counts as choosing a
    /// policy).
    #[must_use]
    pub fn options(mut self, options: ServeOptions) -> Self {
        self.options = options;
        self.policy_overridden = true;
        self
    }

    /// A heterogeneous pool of explicit per-shard specs (typically this
    /// outcome's [`FlowOutcome::shard_spec`] plus specs from other flow
    /// runs). Requests are admitted and routed only to shards whose
    /// feature width matches; dispatch defaults to
    /// [`DispatchPolicy::LatencyAware`] so shards with heterogeneous IIs
    /// split batches by estimated drain time. Takes precedence over
    /// [`ServeBuilder::partitions`].
    #[must_use]
    pub fn specs(mut self, specs: Vec<ShardSpec>) -> Self {
        self.specs = Some(specs);
        self
    }

    /// Clause-partitions this design into (up to) `partitions`
    /// cooperating shards via the compile pipeline
    /// ([`matador_sim::CompilePipeline::partition`]): one partition
    /// group serving as a single logical model, every request executed
    /// on all members and their partial class sums merged — winners,
    /// sums and cycle stamps bit-identical to the monolithic pool.
    /// `1` (the default) keeps the design whole.
    #[must_use]
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Stands up the configured [`ServeSession`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Serve`] on degenerate configurations: zero
    /// shards or queue depth, an empty or zero-weight spec list, or a
    /// partition group mixing feature widths.
    pub fn build(self) -> Result<ServeSession, crate::Error> {
        let ServeBuilder {
            outcome,
            mut options,
            policy_overridden,
            specs,
            partitions,
        } = self;
        if let Some(specs) = specs {
            if !policy_overridden {
                options.policy = DispatchPolicy::LatencyAware;
            }
            return ServeSession::heterogeneous(specs, options).map_err(Into::into);
        }
        if partitions > 1 {
            let accel = outcome.design.compile_for_sim();
            let plan = CompilePipeline::new(CompileOptions::default().with_partitions(partitions))
                .partition(&accel);
            let backend = options.backend;
            let pipelined = options.pipelined_sum;
            let specs: Vec<ShardSpec> = ShardSpec::partitioned(plan, 0)
                .into_iter()
                .map(|spec| spec.backend(backend).pipelined_sum(pipelined))
                .collect();
            return ServeSession::heterogeneous(specs, options).map_err(Into::into);
        }
        ServeSession::new(outcome.design.compile_for_sim(), options).map_err(Into::into)
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
    /// when `train` is empty, plus every error
    /// [`MatadorFlow::run_with_model`] can produce.
    pub fn run(
        &self,
        spec: TrainSpec,
        train: &[Sample],
        test: &[Sample],
    ) -> Result<FlowOutcome, crate::Error> {
        if train.is_empty() {
            return Err(FlowError::EmptyTrainingSet.into());
        }
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
    /// Returns [`FlowError::EmptyTestSet`] when `test` is empty, and
    /// propagates [`matador_sim::SimError`] (as [`crate::Error::Sim`])
    /// should the cycle simulator fail to drain during verification or
    /// latency characterization.
    pub fn run_with_model(
        &self,
        model: TrainedModel,
        test: &[Sample],
    ) -> Result<FlowOutcome, crate::Error> {
        if test.is_empty() {
            return Err(FlowError::EmptyTestSet.into());
        }
        let design = AcceleratorDesign::generate_with_threads(
            model.clone(),
            self.config.clone(),
            self.effective_threads(),
        );
        let implementation = design.implement();

        let verify_set: Vec<Sample> = match self.verify_limit {
            Some(limit) => test.iter().take(limit).cloned().collect(),
            None => test.to_vec(),
        };
        let verification = verify_design(&design, &verify_set, self.gate_vectors, 0xD0_D0)?;

        // Latency characterization: stream a back-to-back batch.
        let accel = design.compile_for_sim();
        let mut sim = SimEngine::new(&accel);
        sim.set_pipelined_sum(self.config.pipeline_class_sum());
        let batch: Vec<_> = verify_set
            .iter()
            .take(32.max(verify_set.len().min(64)))
            .map(|s| s.input.clone())
            .collect();
        let latency = if batch.is_empty() {
            LatencyReport {
                initial_latency_cycles: 0,
                steady_ii_cycles: design.num_hcbs() as f64,
            }
        } else {
            let results = sim.run_datapoints(&batch)?;
            LatencyReport::from_results(&results, 0)
        };

        let test_accuracy = model.accuracy(test);
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
    fn flow_outcome_serves_over_shards() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");

        // Zero shards is rejected through the unified error type.
        let err = outcome
            .serving()
            .shards(0)
            .build()
            .expect_err("zero shards rejected");
        assert!(matches!(
            err,
            crate::Error::Serve(matador_serve::ServeError::ZeroShards)
        ));

        // Sharding never changes predictions, only pool wall-clock.
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();
        let mut winners = Vec::new();
        let mut pool_cycles = Vec::new();
        for shards in [1usize, 4] {
            let mut session = outcome
                .serving()
                .shards(shards)
                .build()
                .expect("valid session");
            let preds = session.serve(&batch).expect("drains");
            winners.push(preds.iter().map(|p| p.winner).collect::<Vec<_>>());
            pool_cycles.push(session.report().pool_cycles);
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
            .pipeline_class_sum(true) // the backend must inherit this
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();

        // One shard, so the comparison covers shard attribution and
        // per-shard stats too (on several shards a turbo pool would
        // consolidate this small batch — a different schedule; the pool
        // tests pin multi-shard assignments).
        let mut cycle = outcome.serving().build().expect("valid session");
        let mut turbo = outcome
            .serving()
            .backend(EngineBackend::Turbo)
            .build()
            .expect("valid session");
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
        let mut session = wide
            .serving()
            .specs(vec![wide.shard_spec(), narrow.shard_spec()])
            .build()
            .expect("valid session");
        let preds = session.serve(&batch).expect("drains");
        for (x, p) in batch.iter().zip(&preds) {
            assert_eq!(p.winner, wide.model.predict(x));
        }
        // The latency-aware default sends more of the batch to the
        // 2-packet wide-bus shard than the 6-packet narrow-bus one.
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
        let err = session
            .serve(&[tsetlin::bits::BitVec::zeros(5)])
            .expect_err("no shard takes width 5");
        assert!(matches!(
            err,
            matador_serve::ServeError::WidthMismatch {
                expected: 12,
                got: 5
            }
        ));

        // Degenerate spec lists converge into the unified error type.
        let err = wide
            .serving()
            .specs(Vec::new())
            .build()
            .expect_err("empty spec list rejected");
        assert!(matches!(
            err,
            crate::Error::Serve(matador_serve::ServeError::ZeroShards)
        ));
    }

    #[test]
    fn partitioned_serving_through_the_builder_matches_monolithic() {
        let (train, test) = tiny_task();
        let config = MatadorConfig::builder()
            .bus_width(4)
            .build()
            .expect("valid");
        let outcome = MatadorFlow::new(config)
            .run(spec(), &train, &test)
            .expect("flow succeeds");
        let batch: Vec<_> = test.iter().map(|s| s.input.clone()).collect();

        let mut mono = outcome
            .serving()
            .shards(1)
            .capture_class_sums(true)
            .build()
            .expect("valid session");
        let expected = mono.serve(&batch).expect("drains");

        // The same design split into two cooperating shards: one logical
        // model, every winner and merged class-sum vector identical.
        let mut split = outcome
            .serving()
            .partitions(2)
            .capture_class_sums(true)
            .build()
            .expect("valid session");
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
