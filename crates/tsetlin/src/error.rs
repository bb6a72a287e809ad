//! The crate-level error type: every fallible `tsetlin` API routes its
//! typed error here via `From`, and the MATADOR core crate in turn folds
//! [`Error`] into `matador::Error`.

use crate::booleanize::EncodeWidthError;
use crate::io::ParseModelError;
use crate::params::{InvalidParamsError, SampleError};
use std::fmt;

/// Any error produced by the `tsetlin` crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Hyperparameter validation failed.
    Params(InvalidParamsError),
    /// A training sample does not fit the machine.
    Sample(SampleError),
    /// A model text file could not be parsed.
    ParseModel(ParseModelError),
    /// An encoder was applied to data of the wrong width.
    Encode(EncodeWidthError),
    /// An underlying I/O operation failed (model writing).
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Params(e) => e.fmt(f),
            Error::Sample(e) => e.fmt(f),
            Error::ParseModel(e) => e.fmt(f),
            Error::Encode(e) => e.fmt(f),
            Error::Io(e) => write!(f, "tsetlin io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Params(e) => Some(e),
            Error::Sample(e) => Some(e),
            Error::ParseModel(e) => Some(e),
            Error::Encode(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<InvalidParamsError> for Error {
    fn from(e: InvalidParamsError) -> Self {
        Error::Params(e)
    }
}

impl From<SampleError> for Error {
    fn from(e: SampleError) -> Self {
        Error::Sample(e)
    }
}

impl From<ParseModelError> for Error {
    fn from(e: ParseModelError) -> Self {
        Error::ParseModel(e)
    }
}

impl From<EncodeWidthError> for Error {
    fn from(e: EncodeWidthError) -> Self {
        Error::Encode(e)
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
    use crate::params::TmParams;

    #[test]
    fn params_error_converts_and_chains() {
        let err: Error = TmParams::builder(0, 2).build().unwrap_err().into();
        assert!(matches!(
            err,
            Error::Params(InvalidParamsError::ZeroFeatures)
        ));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("features"));
    }

    #[test]
    fn parse_error_converts() {
        let err: Error = crate::io::read_model("bogus\n".as_bytes())
            .unwrap_err()
            .into();
        assert!(matches!(err, Error::ParseModel(_)));
    }
}
