//! # qirana-sqlengine
//!
//! A from-scratch, in-memory relational SQL engine — the DBMS substrate of
//! the QIRANA query-pricing framework (the original prototype ran on MySQL;
//! see `DESIGN.md` at the repository root for the substitution rationale).
//!
//! The engine supports the query class QIRANA prices:
//!
//! * select-project-join blocks (implicit and explicit inner joins) under
//!   **bag semantics**, with hash-join execution and predicate pushdown;
//! * aggregation (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, `DISTINCT` forms) with
//!   `GROUP BY` and `HAVING`;
//! * `DISTINCT`, `ORDER BY`, `LIMIT`, derived tables, and `IN`/`EXISTS`/
//!   scalar subqueries including correlated ones;
//! * `UPDATE` statements and primitive cell writes with undo.
//!
//! Three pricing-specific capabilities distinguish it from a generic engine:
//! **table overrides** (execute a plan as if a relation contained different
//! rows), **row patches** (execute as if a few rows held other values —
//! one support instance, read without writing the stored database) and
//! **open plans** ([`plan::ResolvedSelect`] exposes its structure
//! and slot-rewriting helpers so the pricing optimizer can derive augmented,
//! unrolled, and batch queries programmatically).
//!
//! ## Quick example
//!
//! ```
//! use qirana_sqlengine::{Database, TableSchema, ColumnDef, DataType, query};
//!
//! let mut db = Database::new();
//! db.add_table(
//!     TableSchema::new(
//!         "User",
//!         vec![
//!             ColumnDef::new("uid", DataType::Int),
//!             ColumnDef::new("gender", DataType::Str),
//!         ],
//!         &["uid"],
//!     ),
//!     vec![
//!         vec![1.into(), "m".into()],
//!         vec![2.into(), "f".into()],
//!     ],
//! );
//! let out = query(&db, "SELECT count(*) FROM User WHERE gender = 'f'").unwrap();
//! assert_eq!(out.rows[0][0], 1i64.into());
//! ```

pub mod ast;
pub mod database;
pub mod error;
pub mod exact;
pub mod exec;
pub mod expr;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod scans;
pub mod schema;
pub mod table;
pub mod update;
pub mod validate;
pub mod value;

pub use ast::{SelectStmt, Statement};
pub use database::Database;
pub use error::{BudgetResource, EngineError, Result};
pub use exact::SumAcc;
pub use exec::{execute, execute_with_input, ExecBudget, ExecContext, QueryOutput};
pub use fingerprint::{
    bag_fingerprint, fingerprint, fingerprint_bundle, output_row_hash, Fingerprint,
};
pub use parser::{parse_select, parse_statement};
pub use plan::{plan_select, PExpr, PRelation, ResolvedSelect};
pub use scans::SweepScans;
pub use schema::{ColumnDef, DataType, Domain, ForeignKey, TableSchema};
pub use table::{Row, Table};
pub use update::{apply_writes, check_writes, plan_update, CellWrite};
pub use validate::{check_database, Violation};
pub use value::{lossless_f64, Value};

// The pricing service's handler threads share one broker behind its `RwLock`
// and execute plans concurrently on `&Database`, moving errors/outputs between
// threads. These compile-time assertions pin the thread-safety contract: every
// interior-mutable piece of execution state (budget meters, subquery caches)
// must stay inside the per-execution `ExecContext`, never inside the shared
// plan or database types.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    const fn sendable<T: Send>() {}
    shareable::<Database>();
    shareable::<ResolvedSelect>();
    shareable::<Table>();
    shareable::<Value>();
    shareable::<ExecBudget>();
    sendable::<EngineError>();
    sendable::<QueryOutput>();
    sendable::<Fingerprint>();
};

/// Parses, plans, and executes a SELECT statement in one call.
pub fn query(db: &Database, sql: &str) -> Result<QueryOutput> {
    let stmt = parse_select(sql)?;
    let plan = plan_select(&stmt, db)?;
    execute(&plan, &ExecContext::new(db))
}

/// Plans a SQL string into an executable plan (parse + resolve).
pub fn prepare(db: &Database, sql: &str) -> Result<ResolvedSelect> {
    plan_select(&parse_select(sql)?, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::{ColumnDef, DataType, TableSchema};

    #[test]
    fn end_to_end_query() {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            (0..10i64)
                .map(|i| vec![i.into(), (i * i).into()])
                .collect::<Vec<_>>(),
        );
        let out = query(&db, "select sum(v) from T where id < 4").unwrap();
        assert_eq!(out.rows[0][0], Value::Int(1 + 4 + 9));
    }

    #[test]
    fn prepare_then_execute_with_override() {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            vec![vec![1.into(), 10.into()]],
        );
        let plan = prepare(&db, "select v from T").unwrap();
        let alt: Vec<Row> = vec![vec![1.into(), 77.into()]];
        let ctx = ExecContext::with_override(&db, 0, &alt);
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(77)]]);
    }
}
