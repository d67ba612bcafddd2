//! Error type for netlist construction and validation.

use crate::NetId;
use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A cell was created with the wrong number of input nets for its kind.
    ArityMismatch {
        /// Offending cell name.
        cell: String,
        /// Expected input count for the cell kind.
        expected: usize,
        /// Actual number of input nets provided.
        actual: usize,
    },
    /// A net id did not refer to an existing net.
    UnknownNet(NetId),
    /// A net already has a driver and a second driver was attached.
    MultipleDrivers {
        /// The multiply-driven net.
        net: NetId,
        /// Name of the net, for diagnostics.
        name: String,
    },
    /// Structural validation failed; the report lists every violation found.
    Invalid(Vec<String>),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                cell,
                expected,
                actual,
            } => write!(
                f,
                "cell `{cell}` expects {expected} input nets but {actual} were provided"
            ),
            NetlistError::UnknownNet(net) => write!(f, "unknown net id {net}"),
            NetlistError::MultipleDrivers { net, name } => {
                write!(f, "net {net} (`{name}`) already has a driver")
            }
            NetlistError::Invalid(violations) => {
                write!(
                    f,
                    "netlist validation failed with {} violation(s): ",
                    violations.len()
                )?;
                f.write_str(&violations.join("; "))
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let err = NetlistError::ArityMismatch {
            cell: "u1".into(),
            expected: 2,
            actual: 3,
        };
        assert!(err.to_string().contains("u1"));
        assert!(err.to_string().contains('2'));

        let err = NetlistError::Invalid(vec!["a".into(), "b".into()]);
        assert!(err.to_string().contains("2 violation"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<NetlistError>();
    }
}
