//! Primitive cell-level updates with undo.
//!
//! QIRANA represents each support-set instance as an update over the stored
//! database (§3.2). Pricing sweeps read such an update as a row patch
//! ([`crate::ExecContext::with_patch`]) and never write; committed seller
//! updates and test oracles write through the engine-level primitive, a
//! [`CellWrite`]: applying a batch of writes returns the inverse batch.
//! SQL `UPDATE` statements (the paper stores them in an `UpdateQueries`
//! table) are planned read-only into the writes they would apply.

use crate::ast::{SelectItem, SelectStmt, Statement};
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::exec::{eval_row_expr, ExecContext};
use crate::parser::parse_statement;
use crate::plan::plan_select;
use crate::value::Value;

/// One cell assignment: `table.rows[row][col] = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellWrite {
    pub table: usize,
    pub row: usize,
    pub col: usize,
    pub value: Value,
}

/// Checks that every write names an existing table, row and column of
/// `db`, so that [`apply_writes`] cannot index out of bounds.
pub fn check_writes(db: &Database, writes: &[CellWrite]) -> Result<()> {
    for w in writes {
        let fits = w.table < db.num_tables() && {
            let t = db.table_at(w.table);
            w.row < t.len() && w.col < t.schema.arity()
        };
        if !fits {
            return Err(EngineError::plan(format!(
                "cell write (table {}, row {}, col {}) is outside the database",
                w.table, w.row, w.col
            )));
        }
    }
    Ok(())
}

/// Applies the writes in order and returns the inverse writes (in reverse
/// order, so applying the result undoes the batch even when writes overlap).
/// The writes must pass [`check_writes`].
pub fn apply_writes(db: &mut Database, writes: &[CellWrite]) -> Vec<CellWrite> {
    let mut undo = Vec::with_capacity(writes.len());
    for w in writes {
        let old = db
            .table_at_mut(w.table)
            .set_cell(w.row, w.col, w.value.clone());
        undo.push(CellWrite {
            table: w.table,
            row: w.row,
            col: w.col,
            value: old,
        });
    }
    undo.reverse();
    undo
}

/// Parses a SQL `UPDATE` statement and returns the cell writes it makes,
/// in row order, without touching `db`. Every expression is evaluated
/// against the pre-update state, as SQL requires.
pub fn plan_update(db: &Database, sql: &str) -> Result<Vec<CellWrite>> {
    let stmt = match parse_statement(sql)? {
        Statement::Update(u) => u,
        Statement::Select(_) => return Err(EngineError::plan("expected an UPDATE statement")),
    };
    let table_idx = db
        .table_index(&stmt.table)
        .ok_or_else(|| EngineError::plan(format!("unknown table {}", stmt.table)))?;

    // Resolve the assignment expressions and WHERE clause against the target
    // table by planning a synthetic single-table SELECT.
    let synthetic = SelectStmt {
        distinct: false,
        projection: stmt
            .assignments
            .iter()
            .map(|(_, e)| SelectItem::Expr {
                expr: e.clone(),
                alias: None,
            })
            .collect(),
        from: vec![crate::ast::TableRef::Table {
            name: stmt.table.clone(),
            alias: None,
        }],
        where_clause: stmt.where_clause.clone(),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
    };
    let plan = plan_select(&synthetic, db)?;
    let cols: Vec<usize> = stmt
        .assignments
        .iter()
        .map(|(name, _)| {
            db.table_at(table_idx)
                .schema
                .column_index(name)
                .ok_or_else(|| {
                    EngineError::plan(format!("unknown column {name} in {}", stmt.table))
                })
        })
        .collect::<Result<_>>()?;

    let mut writes = Vec::new();
    let ctx = ExecContext::new(db);
    for (ri, row) in db.table_at(table_idx).rows.iter().enumerate() {
        if let Some(f) = &plan.filter {
            if eval_row_expr(f, row, &ctx)?.as_bool3() != Some(true) {
                continue;
            }
        }
        for (ci, proj) in cols.iter().zip(&plan.projections) {
            let v = eval_row_expr(&proj.expr, row, &ctx)?;
            writes.push(CellWrite {
                table: table_idx,
                row: ri,
                col: *ci,
                value: v,
            });
        }
    }
    Ok(writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema};

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
            vec![
                vec![1.into(), "m".into(), 25.into()],
                vec![2.into(), "f".into(), 13.into()],
            ],
        );
        db
    }

    #[test]
    fn apply_and_undo_roundtrip() {
        let mut db = db();
        let before = db.table("User").unwrap().rows.clone();
        let writes = vec![
            CellWrite {
                table: 0,
                row: 0,
                col: 1,
                value: "f".into(),
            },
            CellWrite {
                table: 0,
                row: 1,
                col: 2,
                value: 99.into(),
            },
        ];
        let undo = apply_writes(&mut db, &writes);
        assert_eq!(db.table("User").unwrap().rows[0][1], Value::str("f"));
        assert_eq!(db.table("User").unwrap().rows[1][2], Value::Int(99));
        apply_writes(&mut db, &undo);
        assert_eq!(db.table("User").unwrap().rows, before);
    }

    #[test]
    fn overlapping_writes_undo_in_reverse() {
        let mut db = db();
        let writes = vec![
            CellWrite {
                table: 0,
                row: 0,
                col: 2,
                value: 1.into(),
            },
            CellWrite {
                table: 0,
                row: 0,
                col: 2,
                value: 2.into(),
            },
        ];
        let undo = apply_writes(&mut db, &writes);
        assert_eq!(db.table("User").unwrap().rows[0][2], Value::Int(2));
        apply_writes(&mut db, &undo);
        assert_eq!(db.table("User").unwrap().rows[0][2], Value::Int(25));
    }

    #[test]
    fn sql_update_with_where() {
        let mut db = db();
        let writes = plan_update(&db, "UPDATE User SET gender = 'f' WHERE uid = 1").unwrap();
        let undo = apply_writes(&mut db, &writes);
        assert_eq!(db.table("User").unwrap().rows[0][1], Value::str("f"));
        assert_eq!(undo.len(), 1);
        apply_writes(&mut db, &undo);
        assert_eq!(db.table("User").unwrap().rows[0][1], Value::str("m"));
    }

    #[test]
    fn sql_update_expression_sees_pre_state() {
        let mut db = db();
        let writes = plan_update(&db, "UPDATE User SET age = age + 1").unwrap();
        apply_writes(&mut db, &writes);
        let ages: Vec<i64> = db
            .table("User")
            .unwrap()
            .rows
            .iter()
            .map(|r| r[2].as_i64().unwrap())
            .collect();
        assert_eq!(ages, vec![26, 14]);
    }

    #[test]
    fn sql_update_unknown_column_errors() {
        let db = db();
        assert!(plan_update(&db, "UPDATE User SET nope = 1").is_err());
        assert!(plan_update(&db, "UPDATE Missing SET age = 1").is_err());
    }
}
