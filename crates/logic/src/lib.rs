//! # matador-logic — boolean clause expressions and logic sharing
//!
//! The combinational middle-end of the MATADOR flow. A trained Tsetlin
//! Machine is a set of conjunctive *cubes* over input literals; this crate
//! provides:
//!
//! * [`cube`] — canonical literals/cubes with value semantics,
//! * [`extract`] — fast-extract style shared-divisor extraction,
//! * [`dag`] — a structurally-hashed AND/INV DAG with a `DON'T TOUCH`
//!   mode that disables all merging (the Fig 8 experiment),
//! * [`share`] — model-level sharing statistics and the per-window
//!   optimization entry points used by RTL generation and synthesis.
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_logic::share::optimize_window;
//!
//! // Two clauses sharing a literal pair collapse to three AND gates.
//! let cubes = vec![
//!     Cube::from_lits([Lit::pos(0), Lit::pos(1), Lit::neg(2)]),
//!     Cube::from_lits([Lit::pos(0), Lit::pos(1), Lit::neg(3)]),
//! ];
//! let dag = optimize_window(8, &cubes, Sharing::Enabled);
//! assert!(dag.and2_count() <= 3);
//! ```

pub mod cube;
pub mod dag;
pub mod extract;
mod hash;
pub mod share;

pub use cube::{Cube, Lit};
pub use dag::{LogicDag, Node, NodeRef, Sharing};
pub use extract::{extract_divisors, ExtractOptions, Extraction, Item};
pub use share::{gate_stats, optimize_window, prefix_register_counts, WindowGateStats};
