//! # tsetlin — the Tsetlin Machine learning substrate
//!
//! A from-scratch implementation of the multiclass Tsetlin Machine
//! (Granmo, 2018) as used by the MATADOR toolflow: two-action Tsetlin
//! Automata, conjunctive clauses over positive/negated literals, polarity
//! voting, and the Type I / Type II stochastic feedback schedule.
//!
//! The crate's central artifact is the [`TrainedModel`]: the frozen
//! include/exclude boolean sequence that MATADOR lowers to a combinational
//! circuit. Everything the hardware flow needs — packed include masks,
//! per-window restrictions, sparsity/overlap analytics and a text
//! interchange format for externally trained models — lives here.
//!
//! ## Quick start
//!
//! ```
//! use tsetlin::{MultiClassTm, Sample, TmParams};
//! use tsetlin::bits::BitVec;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Learn a 2-class pattern over 8 boolean features.
//! let params = TmParams::builder(8, 2)
//!     .clauses_per_class(10)
//!     .threshold(5)
//!     .specificity(4.0)
//!     .build()?;
//! let mut tm = MultiClassTm::new(params);
//! let data = vec![
//!     Sample::new(BitVec::from_indices(8, &[0, 1]), 0),
//!     Sample::new(BitVec::from_indices(8, &[6, 7]), 1),
//! ];
//! let mut rng = SmallRng::seed_from_u64(42);
//! tm.fit(&data, 25, &mut rng);
//! let model = tm.to_model();
//! assert_eq!(model.predict(&data[0].input), 0);
//! # Ok(())
//! # }
//! ```

pub mod automaton;
pub mod bits;
pub mod booleanize;
pub mod clause;
pub mod error;
pub mod io;
pub mod model;
pub mod params;
pub mod sampler;
pub mod search;
pub mod sparsity;
pub mod tm;

pub use automaton::{Action, TsetlinAutomaton};
pub use bits::BitVec;
pub use clause::Clause;
pub use error::Error;
pub use model::{IncludeMask, TrainedModel};
pub use params::{InvalidParamsError, SampleError, TmParams};
pub use sampler::TypeISampler;
pub use tm::{argmax, MultiClassTm, Polarity};

/// A labelled boolean datapoint.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Booleanized feature vector.
    pub input: BitVec,
    /// Ground-truth class index.
    pub label: usize,
}

impl Sample {
    /// Creates a labelled sample.
    ///
    /// # Examples
    ///
    /// ```
    /// use tsetlin::{bits::BitVec, Sample};
    ///
    /// let s = Sample::new(BitVec::zeros(4), 1);
    /// assert_eq!(s.label, 1);
    /// ```
    pub fn new(input: BitVec, label: usize) -> Self {
        Sample { input, label }
    }
}
