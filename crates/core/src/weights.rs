//! Weight assignment (§3.3): from a single total price, or from seller
//! price points via entropy maximization.
//!
//! The default assignment gives every support instance the same weight
//! `P/S`. When the seller supplies price points `(Qⱼ, pⱼ)` — "relation User
//! costs 70", "the age column costs 50" — the weights become the solution
//! of the entropy-maximization program, solved by [`qirana_solver`]
//! (replacing the paper's CVXPY + SCS). Infeasibility is surfaced so the
//! broker can resample or enlarge the support set, exactly the reaction
//! §3.3 describes.

use crate::engine::{bundle_disagreements, EngineOptions};
use crate::fault;
use crate::normal_form::prepare_query;
use crate::support::SupportSet;
use qirana_solver::{solve_with, AbortCause, MaxEntProblem, SolveResult, SolverOptions};
use qirana_sqlengine::Database;
use std::fmt;

/// A seller price point: the query `sql` must cost exactly `price`.
#[derive(Debug, Clone)]
pub struct PricePoint {
    pub sql: String,
    pub price: f64,
}

impl PricePoint {
    /// Convenience constructor.
    pub fn new(sql: impl Into<String>, price: f64) -> Self {
        PricePoint {
            sql: sql.into(),
            price,
        }
    }
}

/// Why weight assignment failed.
#[derive(Debug, Clone)]
pub enum WeightError {
    /// A price-point query failed to parse/plan/execute.
    BadPricePoint { sql: String, error: String },
    /// The entropy-maximization program is infeasible for this support set.
    Infeasible { reason: String },
    /// The solver hit its deadline or diverged numerically before reaching
    /// a verdict. Unlike [`WeightError::Infeasible`], retrying (more time,
    /// a resampled support set) may succeed.
    SolverAborted {
        cause: AbortCause,
        iterations: usize,
        residual: f64,
    },
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::BadPricePoint { sql, error } => {
                write!(f, "price point query {sql:?} failed: {error}")
            }
            WeightError::Infeasible { reason } => {
                write!(f, "price points infeasible for this support set: {reason}")
            }
            WeightError::SolverAborted {
                cause,
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "weight solve aborted ({cause:?}) after {iterations} iterations \
                     (residual {residual:.2e})"
                )
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// Uniform weights `P/S` — every part of the data equally valuable.
pub fn uniform_weights(support_size: usize, total_price: f64) -> Vec<f64> {
    assert!(support_size > 0, "support set must be non-empty");
    // qirana-lint::allow(QL002): support-set size, far below 2^53
    vec![total_price / support_size as f64; support_size]
}

/// Solves for max-entropy weights honoring the total price and all price
/// points. With no price points this returns the uniform assignment
/// directly (the program's closed-form optimum).
pub fn assign_weights(
    db: &Database,
    support: &SupportSet,
    total_price: f64,
    points: &[PricePoint],
    opts: &EngineOptions,
) -> Result<Vec<f64>, WeightError> {
    assign_weights_with(
        db,
        support,
        total_price,
        points,
        opts,
        &SolverOptions::default(),
    )
}

/// [`assign_weights`] with explicit solver options (deadline, tolerance,
/// iteration cap) — the broker's retry loop threads its per-attempt time
/// limit through here.
pub fn assign_weights_with(
    db: &Database,
    support: &SupportSet,
    total_price: f64,
    points: &[PricePoint],
    opts: &EngineOptions,
    solver: &SolverOptions,
) -> Result<Vec<f64>, WeightError> {
    fault::check(fault::WEIGHTS_ASSIGN).map_err(|f| WeightError::Infeasible {
        reason: format!("injected fault: {f}"),
    })?;
    let s = support.len();
    if points.is_empty() {
        return Ok(uniform_weights(s, total_price));
    }

    // Row 0: Σ wᵢ = P. Row j: Σ_{i : Qⱼ(Dᵢ) ≠ Qⱼ(D)} wᵢ = pⱼ.
    let mut a: Vec<Vec<f64>> = vec![vec![1.0; s]];
    let mut b: Vec<f64> = vec![total_price];
    for pt in points {
        let prepared = prepare_query(db, &pt.sql).map_err(|e| WeightError::BadPricePoint {
            sql: pt.sql.clone(),
            error: e.to_string(),
        })?;
        let bits = bundle_disagreements(db, &[&prepared], support, opts).map_err(|e| {
            WeightError::BadPricePoint {
                sql: pt.sql.clone(),
                error: e.to_string(),
            }
        })?;
        a.push(bits.iter().map(|&d| if d { 1.0 } else { 0.0 }).collect());
        b.push(pt.price);
    }

    match solve_with(&MaxEntProblem { a, b, n: s }, solver) {
        SolveResult::Optimal { weights, .. } => Ok(weights),
        SolveResult::Infeasible { reason } => Err(WeightError::Infeasible { reason }),
        SolveResult::Aborted {
            cause,
            iterations,
            residual,
        } => Err(WeightError::SolverAborted {
            cause,
            iterations,
            residual,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{generate_support, SupportConfig, SupportSet};
    use qirana_sqlengine::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "User",
                vec![
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("gender", DataType::Str),
                    ColumnDef::new("age", DataType::Int),
                ],
                &["uid"],
            ),
            (1..=8i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 2 == 0 { "f" } else { "m" }.into(),
                        (10 + i * 3).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db.add_table(
            TableSchema::new(
                "Tweet",
                vec![
                    ColumnDef::new("tid", DataType::Int),
                    ColumnDef::new("uid", DataType::Int),
                ],
                &["tid"],
            ),
            (1..=6i64)
                .map(|i| vec![i.into(), (i % 8 + 1).into()])
                .collect::<Vec<_>>(),
        );
        db
    }

    fn support(db: &Database, size: usize) -> SupportSet {
        SupportSet::Neighborhood(generate_support(
            db,
            &SupportConfig {
                size,
                ..Default::default()
            },
        ))
    }

    #[test]
    fn uniform_default() {
        let w = uniform_weights(4, 100.0);
        assert_eq!(w, vec![25.0; 4]);
    }

    #[test]
    fn no_points_gives_uniform() {
        let database = db();
        let s = support(&database, 50);
        let w = assign_weights(&database, &s, 100.0, &[], &EngineOptions::default()).unwrap();
        assert_eq!(w, vec![2.0; 50]);
    }

    #[test]
    fn relation_price_point_honored() {
        let database = db();
        let s = support(&database, 400);
        let points = [PricePoint::new("SELECT * FROM User", 70.0)];
        let w = assign_weights(&database, &s, 100.0, &points, &EngineOptions::default()).unwrap();
        assert_eq!(w.len(), 400);
        assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-5);
        // Re-derive the constraint: User-touching updates must carry 70.
        let q = prepare_query(&database, "SELECT * FROM User").unwrap();
        let bits = bundle_disagreements(&database, &[&q], &s, &EngineOptions::default()).unwrap();
        let user_mass: f64 = w
            .iter()
            .zip(&bits)
            .filter(|(_, &d)| d)
            .map(|(w, _)| *w)
            .sum();
        assert!((user_mass - 70.0).abs() < 1e-5, "got {user_mass}");
    }

    #[test]
    fn infeasible_point_detected() {
        let database = db();
        let s = support(&database, 100);
        // A subset of the data priced above the whole dataset.
        let points = [PricePoint::new("SELECT * FROM User", 170.0)];
        let err =
            assign_weights(&database, &s, 100.0, &points, &EngineOptions::default()).unwrap_err();
        assert!(matches!(err, WeightError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn bad_sql_reported() {
        let database = db();
        let s = support(&database, 10);
        let points = [PricePoint::new("SELECT nope FROM User", 10.0)];
        let err =
            assign_weights(&database, &s, 100.0, &points, &EngineOptions::default()).unwrap_err();
        assert!(matches!(err, WeightError::BadPricePoint { .. }));
    }

    #[test]
    fn attribute_level_point() {
        let database = db();
        let s = support(&database, 400);
        let points = [
            PricePoint::new("SELECT uid, age FROM User", 50.0),
            PricePoint::new("SELECT * FROM User", 70.0),
        ];
        let w = assign_weights(&database, &s, 100.0, &points, &EngineOptions::default()).unwrap();
        assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-5);
        assert!(w.iter().all(|&x| x >= -1e-12), "weights nonnegative");
    }
}
