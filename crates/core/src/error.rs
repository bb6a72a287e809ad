//! The unified error type of the MATADOR toolflow.
//!
//! Every crate in the workspace reports failures through a typed,
//! `std::error::Error`-implementing enum; those per-crate errors converge
//! here via `From`, so flow drivers, the deployment path and downstream
//! automation can write `Result<_, matador::Error>` end-to-end and still
//! match on the precise cause:
//!
//! ```
//! use matador::Error;
//! use matador::config::{InvalidConfigError, MatadorConfig};
//!
//! let err: Error = MatadorConfig::builder().bus_width(0).build().unwrap_err().into();
//! assert!(matches!(
//!     err,
//!     Error::Config(InvalidConfigError::BusWidthOutOfRange { width: 0 })
//! ));
//! ```

use crate::config::InvalidConfigError;
use crate::deploy::DeployError;
use crate::flow::FlowError;
use crate::wizard::WizardError;
use std::fmt;

/// Any error produced by the MATADOR toolflow.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Flow configuration validation failed.
    Config(InvalidConfigError),
    /// A flow entry point was given degenerate inputs (empty training or
    /// test set).
    Flow(FlowError),
    /// A wizard answer could not be parsed or validated.
    Wizard(WizardError),
    /// Writing deployment artifacts failed.
    Deploy(DeployError),
    /// The cycle-accurate simulator failed to drain during verification
    /// or latency characterization.
    Sim(matador_sim::SimError),
    /// The sharded serving runtime rejected a request or a configuration
    /// (tenant quota, width mismatch, degenerate pool or front options),
    /// or a shard engine hung.
    Serve(matador_serve::ServeError),
    /// The learning substrate reported an error (hyperparameters, model
    /// text I/O, booleanization).
    Tsetlin(tsetlin::Error),
    /// RTL generation or netlist validation failed.
    Rtl(matador_rtl::Error),
    /// A synthetic dataset specification was inconsistent.
    Dataset(matador_datasets::SpecError),
    /// An I/O operation outside the deployment path failed.
    Io(std::io::Error),
    /// An error from a downstream crate layered on top of the flow (e.g.
    /// the baselines or bench harnesses); constructed via [`Error::other`].
    Other(Box<dyn std::error::Error + Send + Sync>),
}

impl Error {
    /// Wraps an error type `matador` has no dedicated variant for, so
    /// crates layered *above* this one (baselines, bench) can still
    /// converge on `matador::Error`.
    pub fn other<E>(error: E) -> Self
    where
        E: std::error::Error + Send + Sync + 'static,
    {
        Error::Other(Box::new(error))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => e.fmt(f),
            Error::Flow(e) => e.fmt(f),
            Error::Wizard(e) => e.fmt(f),
            Error::Deploy(e) => e.fmt(f),
            Error::Sim(e) => e.fmt(f),
            Error::Serve(e) => e.fmt(f),
            Error::Tsetlin(e) => e.fmt(f),
            Error::Rtl(e) => e.fmt(f),
            Error::Dataset(e) => e.fmt(f),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Other(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Flow(e) => Some(e),
            Error::Wizard(e) => Some(e),
            Error::Deploy(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Tsetlin(e) => Some(e),
            Error::Rtl(e) => Some(e),
            Error::Dataset(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Other(e) => Some(e.as_ref()),
        }
    }
}

impl From<InvalidConfigError> for Error {
    fn from(e: InvalidConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<FlowError> for Error {
    fn from(e: FlowError) -> Self {
        Error::Flow(e)
    }
}

impl From<matador_sim::SimError> for Error {
    fn from(e: matador_sim::SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<matador_serve::ServeError> for Error {
    fn from(e: matador_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

impl From<WizardError> for Error {
    fn from(e: WizardError) -> Self {
        Error::Wizard(e)
    }
}

impl From<DeployError> for Error {
    fn from(e: DeployError) -> Self {
        Error::Deploy(e)
    }
}

impl From<tsetlin::Error> for Error {
    fn from(e: tsetlin::Error) -> Self {
        Error::Tsetlin(e)
    }
}

impl From<tsetlin::InvalidParamsError> for Error {
    fn from(e: tsetlin::InvalidParamsError) -> Self {
        Error::Tsetlin(tsetlin::Error::Params(e))
    }
}

impl From<tsetlin::io::ParseModelError> for Error {
    fn from(e: tsetlin::io::ParseModelError) -> Self {
        Error::Tsetlin(tsetlin::Error::ParseModel(e))
    }
}

impl From<tsetlin::booleanize::EncodeWidthError> for Error {
    fn from(e: tsetlin::booleanize::EncodeWidthError) -> Self {
        Error::Tsetlin(tsetlin::Error::Encode(e))
    }
}

impl From<matador_rtl::Error> for Error {
    fn from(e: matador_rtl::Error) -> Self {
        Error::Rtl(e)
    }
}

impl From<matador_rtl::NetlistError> for Error {
    fn from(e: matador_rtl::NetlistError) -> Self {
        Error::Rtl(matador_rtl::Error::Netlist(e))
    }
}

impl From<matador_rtl::GenError> for Error {
    fn from(e: matador_rtl::GenError) -> Self {
        Error::Rtl(matador_rtl::Error::Gen(e))
    }
}

impl From<matador_datasets::SpecError> for Error {
    fn from(e: matador_datasets::SpecError) -> Self {
        Error::Dataset(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatadorConfig;
    use tsetlin::params::TmParams;

    #[test]
    fn config_error_converts_with_variant_intact() {
        let err: Error = MatadorConfig::builder()
            .bus_width(0)
            .build()
            .unwrap_err()
            .into();
        assert!(matches!(
            err,
            Error::Config(InvalidConfigError::BusWidthOutOfRange { width: 0 })
        ));
    }

    #[test]
    fn params_error_converts_through_tsetlin_layer() {
        let err: Error = TmParams::builder(0, 2).build().unwrap_err().into();
        assert!(matches!(
            err,
            Error::Tsetlin(tsetlin::Error::Params(
                tsetlin::InvalidParamsError::ZeroFeatures
            ))
        ));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn spec_error_converts() {
        let mut spec = matador_datasets::DatasetKind::Mnist.default_spec();
        spec.noise = 2.0;
        let err: Error = spec.validate().unwrap_err().into();
        assert!(matches!(err, Error::Dataset(_)));
        assert!(err.to_string().contains("noise"));
    }

    #[test]
    fn serve_error_converts_with_variant_intact() {
        let err: Error = matador_serve::ServeError::QueueFull { capacity: 16 }.into();
        assert!(matches!(
            err,
            Error::Serve(matador_serve::ServeError::QueueFull { capacity: 16 })
        ));
        assert!(err.to_string().contains("flush window"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn other_wraps_foreign_errors() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err = Error::other(io);
        assert!(matches!(err, Error::Other(_)));
        assert!(err.to_string().contains("gone"));
    }
}
