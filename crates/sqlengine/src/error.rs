//! Engine error type.

use std::fmt;

/// Result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// The resource dimension an execution budget was exceeded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Wall-clock deadline (limit is in milliseconds).
    WallClock,
    /// Materialized-row cap (limit is a row count).
    Rows,
    /// Estimated-memory cap (limit is in bytes).
    Memory,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetResource::WallClock => write!(f, "wall-clock (ms)"),
            BudgetResource::Rows => write!(f, "rows"),
            BudgetResource::Memory => write!(f, "memory (bytes)"),
        }
    }
}

/// Errors produced by parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Lexical or syntactic error, with byte offset into the SQL text.
    Parse { offset: usize, message: String },
    /// Name-resolution or semantic error (unknown table/column, ambiguous
    /// reference, misplaced aggregate, ...).
    Plan(String),
    /// Runtime evaluation error (type mismatch, scalar subquery returned
    /// multiple rows, ...).
    Eval(String),
    /// Schema construction or catalog error (bad primary key, unknown
    /// relation referenced by a foreign key, ...).
    Schema(String),
    /// An [`ExecBudget`](crate::exec::ExecBudget) limit was hit; execution
    /// stopped cooperatively before completing. `limit` is the configured
    /// cap in the units of `resource`.
    BudgetExceeded {
        resource: BudgetResource,
        limit: u64,
    },
    /// An internal invariant did not hold. Replaces panics on paths
    /// reachable from public API (qirana-lint QL007): the broker must
    /// degrade a purchase, not abort, when an engine invariant breaks.
    Internal(String),
}

impl EngineError {
    pub(crate) fn parse(offset: usize, message: String) -> Self {
        EngineError::Parse { offset, message }
    }

    pub(crate) fn plan(message: impl Into<String>) -> Self {
        EngineError::Plan(message.into())
    }

    pub(crate) fn eval(message: impl Into<String>) -> Self {
        EngineError::Eval(message.into())
    }

    pub(crate) fn schema(message: impl Into<String>) -> Self {
        EngineError::Schema(message.into())
    }

    /// Internal-invariant failure. Public (unlike the other constructors)
    /// so downstream crates (`core::engine`) can surface their own broken
    /// invariants through the same channel.
    pub fn internal(message: impl Into<String>) -> Self {
        EngineError::Internal(message.into())
    }

    /// True when this error is a budget trip (as opposed to a genuine
    /// query failure); callers use this to decide whether a retry with a
    /// larger budget could succeed.
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(self, EngineError::BudgetExceeded { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            EngineError::Plan(m) => write!(f, "plan error: {m}"),
            EngineError::Eval(m) => write!(f, "evaluation error: {m}"),
            EngineError::Schema(m) => write!(f, "schema error: {m}"),
            EngineError::BudgetExceeded { resource, limit } => {
                write!(f, "execution budget exceeded: {resource} limit {limit}")
            }
            EngineError::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset() {
        let e = EngineError::parse(7, "bad token".into());
        assert_eq!(e.to_string(), "parse error at byte 7: bad token");
    }

    #[test]
    fn variants_display() {
        assert!(EngineError::plan("x").to_string().contains("plan error"));
        assert!(EngineError::eval("y").to_string().contains("evaluation"));
    }
}
