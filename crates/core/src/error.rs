//! Error type for the authorization core.

use motro_rel::RelError;
use std::fmt;

/// Errors raised by view registration, grants, and the authorization
/// pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying relational-engine error.
    Rel(RelError),
    /// A view with this name is already defined.
    DuplicateView(String),
    /// Reference to an undefined view.
    UnknownView(String),
    /// A `permit`/`revoke` referenced a grant that does not exist.
    UnknownGrant {
        /// Grantee.
        user: String,
        /// View.
        view: String,
    },
    /// Internal invariant violation (a bug if it ever surfaces).
    Internal(String),
    /// Storage relations that do not describe a store (see
    /// [`crate::storage::decode_store`]), e.g. from a damaged snapshot.
    Storage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rel(e) => write!(f, "{e}"),
            CoreError::DuplicateView(v) => write!(f, "view already defined: {v}"),
            CoreError::UnknownView(v) => write!(f, "unknown view: {v}"),
            CoreError::UnknownGrant { user, view } => {
                write!(f, "no grant of {view} to {user}")
            }
            CoreError::Internal(m) => write!(f, "internal error: {m}"),
            CoreError::Storage(m) => write!(f, "bad storage: {m}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for CoreError {
    fn from(e: RelError) -> Self {
        CoreError::Rel(e)
    }
}

/// Convenience result alias.
pub type CoreResult<T> = Result<T, CoreError>;
