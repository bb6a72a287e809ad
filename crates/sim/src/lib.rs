//! # matador-sim — cycle-accurate SoC-FPGA accelerator simulation
//!
//! The stand-in for running a generated design on the Pynq Z1: an
//! AXI4-Stream master streams packetized datapoints into a bit-true model
//! of the generated architecture (HCB register chain → class sum → argmax
//! → output register), with the same cycle semantics as the emitted RTL.
//!
//! Because the engine executes the *compiled design* (the optimized window
//! DAGs) rather than re-deriving answers from the model, it serves double
//! duty: latency/throughput measurement (Fig 7, Table I) **and** hardware
//! verification — every simulated classification is checked against
//! software inference by the `matador` flow's auto-debug stage.
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_sim::{AccelShape, CompiledAccelerator, SimEngine};
//! use tsetlin::bits::BitVec;
//!
//! let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
//! let cubes = vec![vec![
//!     Cube::from_lits([Lit::pos(0)]),
//!     Cube::one(),
//!     Cube::from_lits([Lit::pos(1)]),
//!     Cube::one(),
//! ]];
//! let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
//! let mut sim = SimEngine::new(&accel);
//! let results = sim.run_datapoints(&[BitVec::from_indices(4, &[0])]).expect("drains");
//! assert_eq!(results[0].winner, 0);
//! ```

pub mod accel;
pub mod compile;
pub mod engine;
pub(crate) mod tape;
pub mod turbo;

pub use accel::{AccelShape, CompiledAccelerator};
pub use compile::{CompileOptions, CompilePipeline, Compiled, PartitionPlan, PassStats};
pub use engine::{CycleTrace, LatencyReport, SimEngine, SimError, SimResult};
pub use turbo::{
    configured_chunk_threshold, host_kernels, CountKernel, EngineBackend, HostKernels,
    TransposeKernel, TurboEngine, TurboProgram, BLOCK_LANES, BLOCK_WORDS, CHUNK_THRESHOLD_ENV,
    DEFAULT_CHUNK_THRESHOLD, LANES,
};
