//! Error type for model construction and solving.

use std::error::Error;
use std::fmt;

/// An error raised while building or solving a MILP model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MilpError {
    /// A variable id from a different model (or out of range) was used.
    UnknownVariable {
        /// Raw index of the unknown variable.
        index: usize,
        /// Number of variables in the model.
        var_count: usize,
    },
    /// A variable was declared with `lower > upper` or a non-finite bound
    /// where a finite one is required.
    InvalidBounds {
        /// Variable name or index.
        var: String,
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// A coefficient or right-hand side is NaN or infinite.
    NonFiniteCoefficient {
        /// Where the coefficient appeared.
        context: String,
    },
    /// The simplex hit its iteration limit — usually a symptom of numerical
    /// cycling; raise the limit or rescale the model.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::UnknownVariable { index, var_count } => {
                write!(f, "variable index {index} out of range for {var_count} variables")
            }
            MilpError::InvalidBounds { var, lower, upper } => {
                write!(f, "invalid bounds [{lower}, {upper}] for variable `{var}`")
            }
            MilpError::NonFiniteCoefficient { context } => {
                write!(f, "non-finite coefficient in {context}")
            }
            MilpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit {limit} exceeded")
            }
        }
    }
}

impl Error for MilpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = MilpError::InvalidBounds { var: "x".into(), lower: 2.0, upper: 1.0 };
        assert_eq!(e.to_string(), "invalid bounds [2, 1] for variable `x`");
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<MilpError>();
    }
}
