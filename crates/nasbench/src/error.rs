use std::error::Error;
use std::fmt;

/// Errors raised while constructing or validating NASBench-style cell specs.
///
/// # Examples
///
/// ```
/// use codesign_nasbench::{AdjMatrix, SpecError};
///
/// let err = AdjMatrix::from_edges(9, &[]).unwrap_err();
/// assert!(matches!(err, SpecError::TooManyVertices { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The adjacency matrix had more vertices than the search space allows.
    TooManyVertices { got: usize, max: usize },
    /// The matrix had fewer than two vertices (input and output are mandatory).
    TooFewVertices { got: usize },
    /// The (pruned) cell had more edges than the search space allows.
    TooManyEdges { got: usize, max: usize },
    /// An edge pointed backwards or to itself; cells must be upper-triangular DAGs.
    NotUpperTriangular { src: usize, dst: usize },
    /// An edge endpoint was outside the matrix.
    EdgeOutOfBounds {
        src: usize,
        dst: usize,
        vertices: usize,
    },
    /// The number of operation labels did not match the interior vertex count.
    OpCountMismatch { got: usize, expected: usize },
    /// After pruning, no path connects the input to the output.
    Disconnected,
    /// A database lookup used a spec that was never inserted.
    UnknownSpec,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::TooManyVertices { got, max } => {
                write!(
                    f,
                    "cell has {got} vertices but the search space allows at most {max}"
                )
            }
            SpecError::TooFewVertices { got } => {
                write!(
                    f,
                    "cell has {got} vertices but needs at least input and output"
                )
            }
            SpecError::TooManyEdges { got, max } => {
                write!(
                    f,
                    "cell has {got} edges but the search space allows at most {max}"
                )
            }
            SpecError::NotUpperTriangular { src, dst } => {
                write!(f, "edge {src}->{dst} is not strictly upper-triangular")
            }
            SpecError::EdgeOutOfBounds { src, dst, vertices } => {
                write!(
                    f,
                    "edge {src}->{dst} is out of bounds for {vertices} vertices"
                )
            }
            SpecError::OpCountMismatch { got, expected } => {
                write!(
                    f,
                    "got {got} operation labels for {expected} interior vertices"
                )
            }
            SpecError::Disconnected => {
                write!(f, "no path connects the cell input to the cell output")
            }
            SpecError::UnknownSpec => write!(f, "spec is not present in the database"),
        }
    }
}

impl Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_without_trailing_punctuation() {
        let errs: Vec<SpecError> = vec![
            SpecError::TooManyVertices { got: 9, max: 7 },
            SpecError::TooManyEdges { got: 12, max: 9 },
            SpecError::NotUpperTriangular { src: 3, dst: 1 },
            SpecError::Disconnected,
            SpecError::UnknownSpec,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'));
            assert_eq!(
                s.chars().next().map(|c| c.is_lowercase()),
                Some(true),
                "{s}"
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SpecError>();
    }
}
