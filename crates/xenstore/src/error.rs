//! Error types for XenStore operations.
//!
//! The variants mirror the errno values the real XenStore protocol returns
//! (`ENOENT`, `EACCES`, `EAGAIN`, …), so toolstack code built on this crate
//! handles the same failure modes as code written against the C daemon.

use std::fmt;

/// Result alias for XenStore operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors returned by XenStore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The path does not exist (`ENOENT`).
    NoEntry(String),
    /// The caller lacks permission for the requested access (`EACCES`).
    PermissionDenied(String),
    /// A transaction failed to commit due to a conflicting concurrent
    /// update and should be retried (`EAGAIN`).
    Again,
    /// The path or value is malformed (`EINVAL`).
    Invalid(String),
    /// The node already exists (`EEXIST`).
    Exists(String),
    /// The referenced transaction id is unknown.
    UnknownTransaction(u32),
    /// A per-domain quota was exceeded.
    QuotaExceeded(&'static str),
    /// The watch token is already registered for this path.
    DuplicateWatch,
    /// The watch to remove was not found.
    WatchNotFound,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoEntry(p) => write!(f, "ENOENT: no such node: {p}"),
            Error::PermissionDenied(p) => write!(f, "EACCES: permission denied: {p}"),
            Error::Again => write!(f, "EAGAIN: transaction conflict, retry"),
            Error::Invalid(m) => write!(f, "EINVAL: {m}"),
            Error::Exists(p) => write!(f, "EEXIST: node already exists: {p}"),
            Error::UnknownTransaction(id) => write!(f, "unknown transaction id {id}"),
            Error::QuotaExceeded(what) => write!(f, "quota exceeded: {what}"),
            Error::DuplicateWatch => write!(f, "watch already registered"),
            Error::WatchNotFound => write!(f, "watch not found"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_errno() {
        assert!(Error::NoEntry("/a".into()).to_string().contains("ENOENT"));
        assert!(Error::PermissionDenied("/a".into())
            .to_string()
            .contains("EACCES"));
        assert!(Error::Again.to_string().contains("EAGAIN"));
        assert!(Error::Invalid("bad".into()).to_string().contains("bad"));
        assert!(Error::Exists("/a".into()).to_string().contains("EEXIST"));
        assert!(Error::UnknownTransaction(9).to_string().contains('9'));
        assert!(Error::QuotaExceeded("nodes").to_string().contains("nodes"));
    }
}
