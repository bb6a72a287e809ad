//! Hyperparameters of the multiclass Tsetlin Machine.

use crate::Sample;
use std::fmt;

/// Error returned when [`TmParams`] validation fails.
///
/// Each variant names the violated constraint and carries the offending
/// value, so callers (the wizard, parameter sweeps, config loaders) can
/// match on the failure instead of scraping a message string.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum InvalidParamsError {
    /// `features` was 0; at least one boolean input is required.
    ZeroFeatures,
    /// Fewer than two classes.
    TooFewClasses {
        /// The rejected class count.
        classes: usize,
    },
    /// `clauses_per_class` was odd or below 2 (clauses come in ± pairs).
    InvalidClauseCount {
        /// The rejected clause budget.
        clauses_per_class: usize,
    },
    /// The vote threshold `T` was 0.
    ZeroThreshold,
    /// Specificity `s` must be strictly greater than 1.0.
    SpecificityTooLow {
        /// The rejected specificity.
        specificity: f64,
    },
    /// Fewer than two automaton states per action side.
    TooFewStates {
        /// The rejected per-side state count.
        states_per_action: u16,
    },
}

impl fmt::Display for InvalidParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tsetlin machine parameters: ")?;
        match *self {
            InvalidParamsError::ZeroFeatures => write!(f, "features must be ≥ 1"),
            InvalidParamsError::TooFewClasses { classes } => {
                write!(f, "classes must be ≥ 2 (got {classes})")
            }
            InvalidParamsError::InvalidClauseCount { clauses_per_class } => write!(
                f,
                "clauses_per_class must be even and ≥ 2 (polarity pairs), got {clauses_per_class}"
            ),
            InvalidParamsError::ZeroThreshold => write!(f, "threshold must be ≥ 1"),
            InvalidParamsError::SpecificityTooLow { specificity } => {
                write!(f, "specificity must be > 1.0 (got {specificity})")
            }
            InvalidParamsError::TooFewStates { states_per_action } => {
                write!(f, "states_per_action must be ≥ 2 (got {states_per_action})")
            }
        }
    }
}

impl std::error::Error for InvalidParamsError {}

/// A training sample that does not fit the machine, as found by
/// [`TmParams::check_samples`]. `index` is the sample's position in the
/// checked slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SampleError {
    /// The label is not a class of the machine.
    LabelOutOfRange {
        /// Position of the sample.
        index: usize,
        /// The rejected label.
        label: usize,
        /// The machine's class count.
        classes: usize,
    },
    /// The input does not have one bit per feature.
    WidthMismatch {
        /// Position of the sample.
        index: usize,
        /// The rejected input width in bits.
        width: usize,
        /// The machine's feature count.
        features: usize,
    },
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SampleError::LabelOutOfRange {
                index,
                label,
                classes,
            } => write!(
                f,
                "sample {index}: label out of range (label {label}, {classes} classes)"
            ),
            SampleError::WidthMismatch {
                index,
                width,
                features,
            } => write!(
                f,
                "sample {index}: input width mismatch ({width} bits, {features} features)"
            ),
        }
    }
}

impl std::error::Error for SampleError {}

/// Validated hyperparameter set for a [`MultiClassTm`].
///
/// The paper stresses that the TM design space is small — clauses per class,
/// the vote threshold `T` and the specificity `s` are the only values a
/// MATADOR user tunes (Table II fixes them per dataset).
///
/// [`MultiClassTm`]: crate::tm::MultiClassTm
///
/// # Examples
///
/// ```
/// use tsetlin::params::TmParams;
///
/// let params = TmParams::builder(784, 10)
///     .clauses_per_class(200)
///     .threshold(15)
///     .specificity(10.0)
///     .build()?;
/// assert_eq!(params.num_literals(), 1568);
/// # Ok::<(), tsetlin::params::InvalidParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TmParams {
    features: usize,
    classes: usize,
    clauses_per_class: usize,
    threshold: u32,
    specificity: f64,
    states_per_action: u16,
    boost_true_positive: bool,
}

impl TmParams {
    /// Starts a builder for a machine over `features` boolean inputs and
    /// `classes` output classes.
    pub fn builder(features: usize, classes: usize) -> TmParamsBuilder {
        TmParamsBuilder {
            features,
            classes,
            clauses_per_class: 100,
            threshold: 15,
            specificity: 10.0,
            states_per_action: 128,
            boost_true_positive: true,
        }
    }

    /// Number of boolean input features `n`.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Clauses allocated to each class (even; alternating ± polarity).
    pub fn clauses_per_class(&self) -> usize {
        self.clauses_per_class
    }

    /// Vote-margin target `T`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Specificity `s` (> 1.0) controlling include pressure.
    pub fn specificity(&self) -> f64 {
        self.specificity
    }

    /// States on each side of every automaton's decision boundary.
    pub fn states_per_action(&self) -> u16 {
        self.states_per_action
    }

    /// Whether Type Ia feedback rewards true-positive literals with
    /// probability 1 instead of `(s-1)/s`.
    pub fn boost_true_positive(&self) -> bool {
        self.boost_true_positive
    }

    /// Total literal count `2n` (each feature contributes `x` and `¬x`).
    pub fn num_literals(&self) -> usize {
        2 * self.features
    }

    /// Total clauses across all classes.
    pub fn total_clauses(&self) -> usize {
        self.classes * self.clauses_per_class
    }

    /// Checks that every sample has a label below `classes` and one input
    /// bit per feature — what training requires of its data.
    ///
    /// # Errors
    ///
    /// Returns [`SampleError`] for the first sample that does not fit.
    pub fn check_samples(&self, samples: &[Sample]) -> Result<(), SampleError> {
        for (index, sample) in samples.iter().enumerate() {
            if sample.label >= self.classes {
                return Err(SampleError::LabelOutOfRange {
                    index,
                    label: sample.label,
                    classes: self.classes,
                });
            }
            if sample.input.len() != self.features {
                return Err(SampleError::WidthMismatch {
                    index,
                    width: sample.input.len(),
                    features: self.features,
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`TmParams`]; see [`TmParams::builder`].
#[derive(Debug, Clone)]
pub struct TmParamsBuilder {
    features: usize,
    classes: usize,
    clauses_per_class: usize,
    threshold: u32,
    specificity: f64,
    states_per_action: u16,
    boost_true_positive: bool,
}

impl TmParamsBuilder {
    /// Sets the clause budget per class (must be even and ≥ 2).
    pub fn clauses_per_class(mut self, clauses: usize) -> Self {
        self.clauses_per_class = clauses;
        self
    }

    /// Sets the vote-margin target `T` (≥ 1).
    pub fn threshold(mut self, t: u32) -> Self {
        self.threshold = t;
        self
    }

    /// Sets the specificity `s` (> 1.0).
    pub fn specificity(mut self, s: f64) -> Self {
        self.specificity = s;
        self
    }

    /// Sets the per-side automaton state count (default 128).
    pub fn states_per_action(mut self, n: u16) -> Self {
        self.states_per_action = n;
        self
    }

    /// Enables or disables boosted true-positive feedback (default on).
    pub fn boost_true_positive(mut self, boost: bool) -> Self {
        self.boost_true_positive = boost;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] when any constraint is violated:
    /// `features ≥ 1`, `classes ≥ 2`, even `clauses_per_class ≥ 2`,
    /// `threshold ≥ 1`, `specificity > 1.0`, `states_per_action ≥ 2`.
    pub fn build(self) -> Result<TmParams, InvalidParamsError> {
        if self.features == 0 {
            return Err(InvalidParamsError::ZeroFeatures);
        }
        if self.classes < 2 {
            return Err(InvalidParamsError::TooFewClasses {
                classes: self.classes,
            });
        }
        if self.clauses_per_class < 2 || !self.clauses_per_class.is_multiple_of(2) {
            return Err(InvalidParamsError::InvalidClauseCount {
                clauses_per_class: self.clauses_per_class,
            });
        }
        if self.threshold == 0 {
            return Err(InvalidParamsError::ZeroThreshold);
        }
        if self.specificity <= 1.0 || self.specificity.is_nan() {
            return Err(InvalidParamsError::SpecificityTooLow {
                specificity: self.specificity,
            });
        }
        if self.states_per_action < 2 {
            return Err(InvalidParamsError::TooFewStates {
                states_per_action: self.states_per_action,
            });
        }
        Ok(TmParams {
            features: self.features,
            classes: self.classes,
            clauses_per_class: self.clauses_per_class,
            threshold: self.threshold,
            specificity: self.specificity,
            states_per_action: self.states_per_action,
            boost_true_positive: self.boost_true_positive,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_params() {
        let p = TmParams::builder(784, 10)
            .clauses_per_class(200)
            .threshold(20)
            .specificity(9.0)
            .build()
            .expect("valid");
        assert_eq!(p.features(), 784);
        assert_eq!(p.total_clauses(), 2000);
        assert_eq!(p.num_literals(), 1568);
    }

    #[test]
    fn rejects_odd_clause_count() {
        let err = TmParams::builder(10, 2).clauses_per_class(5).build();
        assert!(err.is_err());
    }

    #[test]
    fn rejects_zero_features() {
        assert!(TmParams::builder(0, 2).build().is_err());
    }

    #[test]
    fn rejects_single_class() {
        assert!(TmParams::builder(4, 1).build().is_err());
    }

    #[test]
    fn rejects_unit_specificity() {
        assert!(TmParams::builder(4, 2).specificity(1.0).build().is_err());
    }

    #[test]
    fn rejects_zero_threshold() {
        assert!(TmParams::builder(4, 2).threshold(0).build().is_err());
    }

    #[test]
    fn errors_are_matchable_variants() {
        assert_eq!(
            TmParams::builder(10, 2)
                .clauses_per_class(5)
                .build()
                .unwrap_err(),
            InvalidParamsError::InvalidClauseCount {
                clauses_per_class: 5
            }
        );
        assert_eq!(
            TmParams::builder(0, 2).build().unwrap_err(),
            InvalidParamsError::ZeroFeatures
        );
        assert_eq!(
            TmParams::builder(4, 2)
                .specificity(0.5)
                .build()
                .unwrap_err(),
            InvalidParamsError::SpecificityTooLow { specificity: 0.5 }
        );
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let err = TmParams::builder(0, 2).build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("invalid tsetlin machine parameters"));
    }
}
