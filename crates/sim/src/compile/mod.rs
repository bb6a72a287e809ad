//! The compiler pass pipeline: LogicDag windows → tape IR → turbo
//! program, with an optional design partitioner for model-parallel
//! serving.
//!
//! [`TurboProgram::compile`] is a convenience wrapper over this
//! module's [`CompilePipeline`], which runs an explicit ordered pass
//! list:
//!
//! 1. **parse/lower** — each window [`LogicDag`](matador_logic::dag::LogicDag) flattens to an untyped
//!    instruction tape (always on; it *is* the translation).
//! 2. **CSE / cross-window dedup** ([`CompileOptions::cse`]) — local
//!    value numbering with constant folding and a dead-code sweep,
//!    plus whole-tape dedup so identical windows compile once.
//! 3. **fold** — each tape folds into the evaluator's flat AND tape
//!    (always on; [`TurboProgram`] runs nothing else).
//! 4. **partitioning** ([`CompilePipeline::partition`], driven by
//!    [`CompileOptions::partitions`]) — splits one oversized design
//!    into K standalone sub-accelerators with a deterministic
//!    class-sum merge plan ([`PartitionPlan`]).
//!
//! Every pass is semantics-preserving: winners, class sums and cycle
//! stamps are bit-identical with and without CSE
//! (`crates/sim/tests/compile_pipeline_equivalence.rs`). Per-pass
//! stats surface through [`PassStats`] and the `matador_compile_*`
//! counters in [`matador_obs`].
//!
//! # Examples
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_sim::{AccelShape, CompiledAccelerator, CompileOptions, CompilePipeline};
//!
//! let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
//! let cubes = vec![vec![
//!     Cube::from_lits([Lit::pos(0)]),
//!     Cube::one(),
//!     Cube::from_lits([Lit::pos(1)]),
//!     Cube::one(),
//! ]];
//! let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
//!
//! // The default pipeline (lower → CSE → fold) — what TurboProgram::compile runs.
//! let compiled = CompilePipeline::default().compile(&accel);
//! assert!(compiled.stats.tape_after <= compiled.stats.tape_before);
//!
//! // CSE toggles off; results never change.
//! let raw = CompilePipeline::new(CompileOptions::none()).compile(&accel);
//! let x = tsetlin::bits::BitVec::from_indices(4, &[0]);
//! assert_eq!(
//!     compiled.program.class_sums(&[x.clone()]),
//!     raw.program.class_sums(&[x]),
//! );
//! ```
//!
//! Partitioned serving: split a design and let a shard pool treat the
//! parts as one logical model (`matador_serve::ShardSpec::partitioned`):
//!
//! ```
//! # use matador_logic::cube::{Cube, Lit};
//! # use matador_logic::dag::Sharing;
//! # use matador_sim::{AccelShape, CompiledAccelerator, CompileOptions, CompilePipeline};
//! # let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 4 };
//! # let cubes = vec![vec![Cube::from_lits([Lit::pos(0)]), Cube::one(),
//! #     Cube::from_lits([Lit::pos(1)]), Cube::one(),
//! #     Cube::from_lits([Lit::pos(2)]), Cube::one(),
//! #     Cube::from_lits([Lit::pos(3)]), Cube::one()]];
//! # let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
//! let pipeline = CompilePipeline::new(CompileOptions::default().with_partitions(2));
//! let plan = pipeline.partition(&accel);
//! assert_eq!(plan.len(), 2);
//! let x = tsetlin::bits::BitVec::from_indices(4, &[0, 2]);
//! let member_sums: Vec<Vec<i32>> = plan
//!     .parts()
//!     .iter()
//!     .map(|part| part.batch_class_sums(&[x.clone()]).remove(0))
//!     .collect();
//! assert_eq!(plan.merge_class_sums(&member_sums), accel.batch_class_sums(&[x]).remove(0));
//! ```

pub(crate) mod ir;

mod cse;
mod partition;

pub use partition::PartitionPlan;

use crate::accel::CompiledAccelerator;
use crate::turbo::TurboProgram;
use ir::WindowProgram;
use matador_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

/// Compile-pipeline metric handles, resolved once per process (same
/// pattern as the turbo datapath's metrics). Pure sinks.
struct CompileMetrics {
    /// `matador_compile_runs_total` — pipeline compilations.
    runs: Arc<Counter>,
    /// `matador_compile_tape_instructions_total{stage="before"}` — tape
    /// instructions entering the optimization passes.
    tape_before: Arc<Counter>,
    /// `matador_compile_tape_instructions_total{stage="after"}` — tape
    /// instructions surviving them.
    tape_after: Arc<Counter>,
    /// `matador_compile_cse_dedup_hits_total` — windows served by a
    /// clone of an identical earlier window.
    dedup_hits: Arc<Counter>,
    /// `matador_compile_partitions_total` — parts produced by the
    /// partitioner.
    partitions: Arc<Counter>,
    /// `matador_compile_partition_cut_cost_total` — window DAG nodes
    /// duplicated across partition cuts.
    cut_cost: Arc<Counter>,
}

fn compile_metrics() -> &'static CompileMetrics {
    static METRICS: OnceLock<CompileMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        CompileMetrics {
            runs: registry.counter(
                "matador_compile_runs_total",
                "",
                "Compile-pipeline runs (one per design compilation).",
            ),
            tape_before: registry.counter(
                "matador_compile_tape_instructions_total",
                "stage=\"before\"",
                "Tape instructions entering / leaving the optimization passes.",
            ),
            tape_after: registry.counter(
                "matador_compile_tape_instructions_total",
                "stage=\"after\"",
                "Tape instructions entering / leaving the optimization passes.",
            ),
            dedup_hits: registry.counter(
                "matador_compile_cse_dedup_hits_total",
                "",
                "Windows compiled as clones of an identical earlier window.",
            ),
            partitions: registry.counter(
                "matador_compile_partitions_total",
                "",
                "Sub-programs produced by the design partitioner.",
            ),
            cut_cost: registry.counter(
                "matador_compile_partition_cut_cost_total",
                "",
                "Window DAG nodes duplicated across partition cuts.",
            ),
        }
    })
}

/// Whether the pipeline runs CSE, and how many parts the partitioner
/// cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run cross-window CSE / tape dedup (pass 2).
    pub cse: bool,
    /// How many sub-programs [`CompilePipeline::partition`] splits a
    /// design into (clamped to the design's vote-pair count; `1` means
    /// no partitioning).
    pub partitions: usize,
}

impl Default for CompileOptions {
    /// CSE on, no partitioning — what [`TurboProgram::compile`] runs.
    fn default() -> Self {
        CompileOptions {
            cse: true,
            partitions: 1,
        }
    }
}

impl CompileOptions {
    /// The raw flatten: CSE off. This is the behavior baseline the
    /// pipeline is equivalence-tested against.
    pub fn none() -> Self {
        CompileOptions {
            cse: false,
            partitions: 1,
        }
    }

    /// Returns the options with the partition count set.
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }
}

/// Per-pass statistics for one pipeline run; the tape and dedup figures
/// are also accumulated into the `matador_compile_*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Tape instructions across all windows after lowering, before any
    /// optimization pass.
    pub tape_before: usize,
    /// Tape instructions after CSE (equal to `tape_before` when it is
    /// off).
    pub tape_after: usize,
    /// Windows replaced by clones of identical earlier windows (0 when
    /// CSE is off).
    pub cse_dedup_hits: usize,
    /// Clause-AND word-ops per lane word before constant-1 elision: one
    /// per window × clause partial output.
    pub clause_ands_before: usize,
    /// Clause-AND word-ops the program executes per lane word: the
    /// partials that are not the constant-1 slot (a clause with no
    /// literal in that window).
    pub clause_ands_after: usize,
    /// Tape AND word-ops the program executes per lane word once window
    /// inputs, their complements and the constants are folded into AND
    /// operands: the hardware's AND2 gate count (Σ
    /// `LogicDag::and2_count`), less any duplicate gates CSE merged
    /// (there are none under Fig 3 sharing).
    pub tape_ands: usize,
    /// 64×64 bit transposes per lane-word column in the class-sum stage:
    /// each transpose pivots the `+` and `−` count planes of
    /// `⌊64 / 2k⌋` whole classes (`k` planes per sign) into per-lane
    /// fields. 2 on quick KWS-6 and 3 on quick MNIST.
    pub sum_transposes: usize,
}

/// A compiled program plus the per-pass stats of the run that built it.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The executable turbo program.
    pub program: TurboProgram,
    /// What each pass did.
    pub stats: PassStats,
}

/// The ordered pass pipeline. See the [module docs](self) for the pass
/// list and an example.
#[derive(Debug, Clone, Default)]
pub struct CompilePipeline {
    options: CompileOptions,
}

impl CompilePipeline {
    /// A pipeline running the given passes.
    pub fn new(options: CompileOptions) -> Self {
        CompilePipeline { options }
    }

    /// The configured pass toggles.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Runs lower → CSE → fold over every window of `accel`, yielding
    /// an executable [`TurboProgram`].
    pub fn compile(&self, accel: &CompiledAccelerator) -> Compiled {
        let shape = *accel.shape();
        let mut windows: Vec<WindowProgram> =
            accel.windows().iter().map(WindowProgram::lower).collect();
        let mut stats = PassStats {
            tape_before: tape_len(&windows),
            ..PassStats::default()
        };
        if self.options.cse {
            stats.cse_dedup_hits = cse::run(&mut windows).dedup_hits;
        }
        stats.tape_after = tape_len(&windows);
        stats.clause_ands_before = windows.iter().map(|w| w.outputs.len()).sum();
        let program = TurboProgram::from_tapes(shape, windows);
        stats.clause_ands_after = program.clause_ands();
        stats.tape_ands = program.tape_ands();
        stats.sum_transposes = program.sum_transposes();
        let metrics = compile_metrics();
        metrics.runs.inc();
        metrics.tape_before.add(stats.tape_before as u64);
        metrics.tape_after.add(stats.tape_after as u64);
        metrics.dedup_hits.add(stats.cse_dedup_hits as u64);
        Compiled { program, stats }
    }

    /// Splits `accel` into [`CompileOptions::partitions`] standalone
    /// sub-accelerators (see [`PartitionPlan`] for the merge contract).
    pub fn partition(&self, accel: &CompiledAccelerator) -> PartitionPlan {
        let plan = partition::partition(accel, self.options.partitions);
        let metrics = compile_metrics();
        metrics.partitions.add(plan.len() as u64);
        metrics.cut_cost.add(plan.cut_cost());
        plan
    }
}

fn tape_len(windows: &[WindowProgram]) -> usize {
    windows.iter().map(|w| w.ops.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelShape;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use tsetlin::bits::BitVec;

    fn accel(sharing: Sharing) -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 4,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(0), Lit::neg(1), Lit::pos(3)]),
            Cube::one(),
            Cube::from_lits([Lit::neg(3)]),
            Cube::one(),
        ];
        // Identical to w0: the cross-window dedup target.
        let w1 = w0.clone();
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], sharing)
    }

    fn batch(n: usize) -> Vec<BitVec> {
        (0..n)
            .map(|i| BitVec::from_indices(8, &[i % 8, (3 * i + 1) % 8]))
            .collect()
    }

    #[test]
    fn every_pass_combination_is_bit_identical() {
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let a = accel(sharing);
            let baseline = CompilePipeline::new(CompileOptions::none()).compile(&a);
            let xs = batch(200);
            let expected = baseline.program.class_sums(&xs);
            for (x, sums) in xs.iter().zip(&expected) {
                assert_eq!(sums, &a.reference_class_sums(x));
            }
            for cse in [false, true] {
                let opts = CompileOptions { cse, partitions: 1 };
                let compiled = CompilePipeline::new(opts).compile(&a);
                assert_eq!(
                    compiled.program.class_sums(&xs),
                    expected,
                    "sharing={sharing:?} cse={cse}"
                );
            }
        }
    }

    #[test]
    fn cse_shrinks_tapes_and_dedups_identical_windows() {
        let a = accel(Sharing::DontTouch);
        let compiled = CompilePipeline::new(CompileOptions::default()).compile(&a);
        assert!(
            compiled.stats.tape_after < compiled.stats.tape_before,
            "CSE must shrink: {:?}",
            compiled.stats
        );
        // The two windows lower to identical tapes.
        assert_eq!(compiled.stats.cse_dedup_hits, 1);
    }

    #[test]
    fn tape_ands_are_the_and2_gates_cse_leaves() {
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let a = accel(sharing);
            let gates: usize = a
                .windows()
                .iter()
                .map(matador_logic::dag::LogicDag::and2_count)
                .sum();
            let raw = CompilePipeline::new(CompileOptions::none()).compile(&a);
            assert_eq!(raw.stats.tape_ands, gates, "{sharing:?}");
            let optimized = CompilePipeline::default().compile(&a);
            if sharing == Sharing::Enabled {
                // Fig 3 sharing already merged every duplicate gate.
                assert_eq!(optimized.stats.tape_ands, gates);
            } else {
                // Without it, CSE merges the duplicate cubes' gates.
                assert!(optimized.stats.tape_ands < gates, "{:?}", optimized.stats);
            }
        }
    }

    #[test]
    fn sum_transposes_pin_the_class_sum_stage_work() {
        // (classes, clauses per class, transposes per lane-word column):
        // quick KWS-6 has 8 count planes per sign, so 4 classes share a
        // 64-row block; quick MNIST has 7, so 4 again; CIFAR-2 has 9.
        for (classes, cpc, transposes) in [(6, 300, 2), (10, 200, 3), (2, 1000, 1)] {
            let shape = AccelShape {
                bus_width: 4,
                features: 4,
                classes,
                clauses_per_class: cpc,
            };
            let cubes: Vec<Cube> = (0..classes * cpc)
                .map(|c| Cube::from_lits([Lit::pos((c % 4) as u32)]))
                .collect();
            let a = CompiledAccelerator::from_window_cubes(shape, &[cubes], Sharing::Enabled);
            for options in [CompileOptions::none(), CompileOptions::default()] {
                let stats = CompilePipeline::new(options).compile(&a).stats;
                assert_eq!(
                    stats.sum_transposes, transposes,
                    "{classes}x{cpc} {options:?}"
                );
            }
        }
    }

    #[test]
    fn partition_sums_merge_to_monolithic() {
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let a = accel(sharing);
            for k in [1usize, 2, 3, 4, 7] {
                let plan = CompilePipeline::new(CompileOptions::default().with_partitions(k))
                    .partition(&a);
                assert_eq!(plan.len(), k.clamp(1, 2), "cpc=4 has 2 vote pairs");
                // Ranges tile [0, cpc) and start even.
                let mut next = 0usize;
                for &(start, end) in plan.ranges() {
                    assert_eq!(start, next);
                    assert_eq!(start % 2, 0);
                    assert!(end > start);
                    next = end;
                }
                assert_eq!(next, a.shape().clauses_per_class);
                for x in batch(40) {
                    let member: Vec<Vec<i32>> = plan
                        .parts()
                        .iter()
                        .map(|p| p.reference_class_sums(&x))
                        .collect();
                    assert_eq!(
                        plan.merge_class_sums(&member),
                        a.reference_class_sums(&x),
                        "sharing={sharing:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_parts_share_packet_count() {
        let a = accel(Sharing::Enabled);
        let plan = CompilePipeline::new(CompileOptions::default().with_partitions(2)).partition(&a);
        for part in plan.parts() {
            assert_eq!(part.shape().num_packets(), a.shape().num_packets());
            assert_eq!(part.shape().features, a.shape().features);
            assert_eq!(part.shape().classes, a.shape().classes);
        }
    }
}
