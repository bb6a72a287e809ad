//! # matador-repro — workspace facade
//!
//! Re-exports every crate of the MATADOR reproduction so the repository's
//! `examples/` and cross-crate `tests/` can reach the full stack through a
//! single dependency. Library users should depend on the individual crates
//! (`matador`, `tsetlin`, …) directly.

pub use matador;
pub use matador::Error;

pub use matador_axi as axi;
pub use matador_baselines as baselines;
pub use matador_datasets as datasets;
pub use matador_logic as logic;
pub use matador_obs as obs;
pub use matador_par as par;
pub use matador_rtl as rtl;
pub use matador_serve as serve;
pub use matador_sim as sim;
/// The compiler pipeline's surface, lifted to the facade root: compile a
/// design through explicit, toggleable passes
/// ([`CompileOptions`] → [`CompilePipeline`] → [`Compiled`] +
/// [`PassStats`]), or cut it into cooperating sub-programs with
/// [`CompilePipeline::partition`] ([`PartitionPlan`]).
///
/// ```
/// use matador_repro::logic::cube::{Cube, Lit};
/// use matador_repro::logic::dag::Sharing;
/// use matador_repro::sim::{AccelShape, CompiledAccelerator};
/// use matador_repro::{CompileOptions, CompilePipeline};
///
/// let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 4 };
/// let cubes = vec![vec![
///     Cube::from_lits([Lit::pos(0)]), Cube::one(),
///     Cube::from_lits([Lit::pos(1)]), Cube::one(),
///     Cube::from_lits([Lit::pos(2)]), Cube::one(),
///     Cube::from_lits([Lit::pos(3)]), Cube::one(),
/// ]];
/// let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
///
/// // The default pipeline: parse/lower, cross-window CSE, fold.
/// let compiled = CompilePipeline::new(CompileOptions::default()).compile(&accel);
/// assert!(compiled.stats.tape_after <= compiled.stats.tape_before);
///
/// // The partitioner: the same design as two merge-summed sub-programs.
/// let plan = CompilePipeline::new(CompileOptions::default().with_partitions(2))
///     .partition(&accel);
/// assert_eq!(plan.len(), 2);
/// ```
pub use matador_sim::compile::{
    CompileOptions, CompilePipeline, Compiled, PartitionPlan, PassStats,
};
pub use matador_synth as synth;
pub use tsetlin;
