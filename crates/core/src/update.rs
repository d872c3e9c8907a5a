//! Support-set updates: row updates and swap updates (§3.2).
//!
//! Every element of QIRANA's support set is a *neighboring database* of the
//! stored instance `D`, represented implicitly as an update over `D`:
//!
//! * a **row update** replaces one or more non-key attributes of a single
//!   tuple with different values from the attribute domain (`D' ∈ N¹(D)`);
//! * a **swap update** exchanges one or more attributes between two tuples
//!   of the same relation (`D' ∈ N²(D)`).
//!
//! Both always yield an instance *different from* `D` (the generator in
//! [`crate::support`] guarantees changed values actually change), and both
//! preserve relation cardinalities and primary keys — the constraints that
//! define the possible-worlds set `I` (§3.1).

use qirana_sqlengine::update::{apply_writes, CellWrite};
use qirana_sqlengine::{output_row_hash, Database, Row, Value};

/// One support-set element, as an update over the stored instance.
#[derive(Debug, Clone, PartialEq)]
pub enum SupportUpdate {
    /// Replace attributes of a single tuple.
    Row {
        /// Catalog index of the updated relation.
        table: usize,
        /// Row index within the relation.
        row: usize,
        /// `(column, new value)` pairs; every new value differs from the
        /// stored one.
        changes: Vec<(usize, Value)>,
    },
    /// Exchange attribute values between two tuples of one relation.
    Swap {
        /// Catalog index of the updated relation.
        table: usize,
        /// First row index.
        row_a: usize,
        /// Second row index (≠ `row_a`).
        row_b: usize,
        /// Columns whose values are exchanged; at least one column differs
        /// between the two rows.
        cols: Vec<usize>,
    },
}

impl SupportUpdate {
    /// The relation this update touches.
    pub fn table(&self) -> usize {
        match self {
            SupportUpdate::Row { table, .. } | SupportUpdate::Swap { table, .. } => *table,
        }
    }

    /// The columns this update modifies (the `B` of Algorithms 4–6).
    pub fn changed_columns(&self) -> Vec<usize> {
        match self {
            SupportUpdate::Row { changes, .. } => changes.iter().map(|(c, _)| *c).collect(),
            SupportUpdate::Swap { cols, .. } => cols.clone(),
        }
    }

    /// The columns whose stored values actually change when the update is
    /// applied to `db` — the declared columns minus no-ops (a `Row` change
    /// writing back the stored value, or a `Swap` column on which both rows
    /// agree). This is what the engine's visibility test
    /// ([`crate::engine::visibility`]) intersects with a query's column
    /// footprint and hands to the §4 checks as `B`:
    /// [`Self::changed_columns`] over-reports once a seller update has made
    /// some declared change a write-back, which would both defeat the
    /// short circuit and charge for neighbors that are the stored database.
    pub fn effective_changed_columns(&self, db: &Database) -> Vec<usize> {
        match self {
            SupportUpdate::Row {
                table,
                row,
                changes,
            } => {
                let r = &db.table_at(*table).rows[*row];
                changes
                    .iter()
                    .filter(|(c, v)| r[*c] != *v)
                    .map(|(c, _)| *c)
                    .collect()
            }
            SupportUpdate::Swap {
                table,
                row_a,
                row_b,
                cols,
            } => {
                let t = db.table_at(*table);
                cols.iter()
                    .copied()
                    .filter(|&c| t.rows[*row_a][c] != t.rows[*row_b][c])
                    .collect()
            }
        }
    }

    /// Expands the update into primitive cell writes against `db`.
    pub fn to_writes(&self, db: &Database) -> Vec<CellWrite> {
        match self {
            SupportUpdate::Row {
                table,
                row,
                changes,
            } => changes
                .iter()
                .map(|(col, v)| CellWrite {
                    table: *table,
                    row: *row,
                    col: *col,
                    value: v.clone(),
                })
                .collect(),
            SupportUpdate::Swap {
                table,
                row_a,
                row_b,
                cols,
            } => {
                let t = db.table_at(*table);
                let mut writes = Vec::with_capacity(cols.len() * 2);
                for &c in cols {
                    writes.push(CellWrite {
                        table: *table,
                        row: *row_a,
                        col: c,
                        value: t.rows[*row_b][c].clone(),
                    });
                    writes.push(CellWrite {
                        table: *table,
                        row: *row_b,
                        col: c,
                        value: t.rows[*row_a][c].clone(),
                    });
                }
                writes
            }
        }
    }

    /// The row indices the update touches: one for a row update, two for
    /// a swap.
    pub fn rows(&self) -> Vec<usize> {
        match self {
            SupportUpdate::Row { row, .. } => vec![*row],
            SupportUpdate::Swap { row_a, row_b, .. } => vec![*row_a, *row_b],
        }
    }

    /// The update as a row patch over `db`: each touched row index with its
    /// `u⁺` row ([`Self::old_new_rows`]), sorted by index. Executing under
    /// [`qirana_sqlengine::ExecContext::with_patch`] with it executes on the
    /// neighboring instance without writing the stored one.
    pub fn patch(&self, db: &Database) -> Vec<(usize, Row)> {
        let (_, new) = self.old_new_rows(db);
        let mut patch: Vec<(usize, Row)> = self.rows().into_iter().zip(new).collect();
        patch.sort_by_key(|(i, _)| *i);
        patch.dedup_by_key(|(i, _)| *i);
        patch
    }

    /// Applies the update (`up↑`), returning the undo writes (`up↓`). Only
    /// commits and the brute-force test oracles write; sweeps read the
    /// update as a [`Self::patch`].
    pub fn apply(&self, db: &mut Database) -> Vec<CellWrite> {
        let writes = self.to_writes(db);
        apply_writes(db, &writes)
    }

    /// The removed and inserted tuples `(u⁻ set, u⁺ set)`: one pair for a
    /// row update, two for a swap.
    pub fn old_new_rows(&self, db: &Database) -> (Vec<Row>, Vec<Row>) {
        match self {
            SupportUpdate::Row {
                table,
                row,
                changes,
            } => {
                let old = db.table_at(*table).rows[*row].clone();
                let mut new = old.clone();
                for (c, v) in changes {
                    new[*c] = v.clone();
                }
                (vec![old], vec![new])
            }
            SupportUpdate::Swap {
                table,
                row_a,
                row_b,
                cols,
            } => {
                let t = db.table_at(*table);
                let old_a = t.rows[*row_a].clone();
                let old_b = t.rows[*row_b].clone();
                let mut new_a = old_a.clone();
                let mut new_b = old_b.clone();
                for &c in cols {
                    new_a[c] = old_b[c].clone();
                    new_b[c] = old_a[c].clone();
                }
                (vec![old_a, old_b], vec![new_a, new_b])
            }
        }
    }

    /// A canonical fingerprint of the *database instance* this update
    /// produces: two updates yield the same neighboring database iff their
    /// signatures match (no-op cell writes are dropped, writes are sorted).
    /// The broker uses this to build the partition induced by the
    /// full-dataset bundle `Q_all`, which anchors the entropy-family price
    /// scaling at exactly `P`.
    /// Signatures are persisted transitively (entropy-family partitions
    /// feed ledgered prices), so the hash must be stable across toolchains:
    /// `DefaultHasher` is explicitly unstable between Rust releases, hence
    /// the fingerprint-grade `output_row_hash` (splitmix64-based, with the
    /// same lossless value canonicalization as result fingerprints — equal
    /// cell values hash equally even across Int/Float representations).
    pub fn signature(&self, db: &Database) -> u64 {
        let mut writes: Vec<CellWrite> = self
            .to_writes(db)
            .into_iter()
            .filter(|w| db.table_at(w.table).rows[w.row][w.col] != w.value)
            .collect();
        writes.sort_by_key(|w| (w.table, w.row, w.col));
        let mut acc: u128 = 0x5153_4cb9;
        for w in &writes {
            let h = output_row_hash(&[
                Value::Int(w.table as i64),
                Value::Int(w.row as i64),
                Value::Int(w.col as i64),
                w.value.clone(),
            ]);
            // Order-sensitive chain over the canonically sorted writes.
            acc = acc.rotate_left(7) ^ h;
        }
        (acc as u64) ^ ((acc >> 64) as u64)
    }

    /// True iff applying the update would actually change the database
    /// (swap updates degenerate when both rows agree on all swapped
    /// columns; the generator filters these, but validation code checks).
    pub fn is_effective(&self, db: &Database) -> bool {
        match self {
            SupportUpdate::Row {
                table,
                row,
                changes,
            } => {
                let r = &db.table_at(*table).rows[*row];
                changes.iter().any(|(c, v)| r[*c] != *v)
            }
            SupportUpdate::Swap {
                table,
                row_a,
                row_b,
                cols,
            } => {
                let t = db.table_at(*table);
                cols.iter().any(|&c| t.rows[*row_a][c] != t.rows[*row_b][c])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            vec![
                vec![1.into(), "m".into(), 25.into()],
                vec![2.into(), "f".into(), 13.into()],
                vec![3.into(), "m".into(), 45.into()],
            ],
        );
        db
    }

    #[test]
    fn row_update_apply_undo() {
        let mut db = db();
        let before = db.table_at(0).rows.clone();
        let up = SupportUpdate::Row {
            table: 0,
            row: 0,
            changes: vec![(1, "f".into()), (2, 30.into())],
        };
        let undo = up.apply(&mut db);
        assert_eq!(
            db.table_at(0).rows[0],
            vec![1.into(), "f".into(), 30.into()]
        );
        apply_writes(&mut db, &undo);
        assert_eq!(db.table_at(0).rows, before);
    }

    #[test]
    fn swap_update_apply_undo() {
        let mut db = db();
        let before = db.table_at(0).rows.clone();
        let up = SupportUpdate::Swap {
            table: 0,
            row_a: 0,
            row_b: 2,
            cols: vec![2],
        };
        let undo = up.apply(&mut db);
        assert_eq!(db.table_at(0).rows[0][2], Value::Int(45));
        assert_eq!(db.table_at(0).rows[2][2], Value::Int(25));
        apply_writes(&mut db, &undo);
        assert_eq!(db.table_at(0).rows, before);
    }

    #[test]
    fn old_new_rows_for_row_update() {
        let db = db();
        let up = SupportUpdate::Row {
            table: 0,
            row: 1,
            changes: vec![(2, 99.into())],
        };
        let (old, new) = up.old_new_rows(&db);
        assert_eq!(old, vec![vec![2.into(), "f".into(), 13.into()]]);
        assert_eq!(new, vec![vec![2.into(), "f".into(), 99.into()]]);
    }

    #[test]
    fn old_new_rows_for_swap() {
        let db = db();
        let up = SupportUpdate::Swap {
            table: 0,
            row_a: 0,
            row_b: 1,
            cols: vec![1, 2],
        };
        let (old, new) = up.old_new_rows(&db);
        assert_eq!(old.len(), 2);
        assert_eq!(new[0], vec![1.into(), "f".into(), 13.into()]);
        assert_eq!(new[1], vec![2.into(), "m".into(), 25.into()]);
    }

    #[test]
    fn effectiveness() {
        let db = db();
        let noop_swap = SupportUpdate::Swap {
            table: 0,
            row_a: 0,
            row_b: 2,
            cols: vec![1], // both 'm'
        };
        assert!(!noop_swap.is_effective(&db));
        let real_swap = SupportUpdate::Swap {
            table: 0,
            row_a: 0,
            row_b: 2,
            cols: vec![1, 2], // ages differ
        };
        assert!(real_swap.is_effective(&db));
        let noop_row = SupportUpdate::Row {
            table: 0,
            row: 0,
            changes: vec![(1, "m".into())],
        };
        assert!(!noop_row.is_effective(&db));
    }

    #[test]
    fn changed_columns_reported() {
        let up = SupportUpdate::Row {
            table: 0,
            row: 0,
            changes: vec![(1, "f".into()), (2, 1.into())],
        };
        assert_eq!(up.changed_columns(), vec![1, 2]);
    }

    #[test]
    fn effective_changed_columns_drop_noops() {
        let db = db();
        // Row 0 is (1, "m", 25): writing "m" back to col 1 is a no-op.
        let up = SupportUpdate::Row {
            table: 0,
            row: 0,
            changes: vec![(1, "m".into()), (2, 30.into())],
        };
        assert_eq!(up.changed_columns(), vec![1, 2]);
        assert_eq!(up.effective_changed_columns(&db), vec![2]);
        // Rows 0 and 2 agree on gender but differ on age.
        let swap = SupportUpdate::Swap {
            table: 0,
            row_a: 0,
            row_b: 2,
            cols: vec![1, 2],
        };
        assert_eq!(swap.changed_columns(), vec![1, 2]);
        assert_eq!(swap.effective_changed_columns(&db), vec![2]);
    }

    #[test]
    fn signature_is_stable_and_canonical() {
        let db = db();
        // Pinned value: the signature feeds ledgered partitions, so it must
        // not drift across toolchain bumps (the old DefaultHasher-based
        // implementation had no such guarantee).
        let up = SupportUpdate::Row {
            table: 0,
            row: 1,
            changes: vec![(2, 99.into())],
        };
        let s = up.signature(&db);
        assert_eq!(s, up.signature(&db));
        // Writing the stored value is dropped: the signature equals that of
        // the update without the no-op write.
        let with_noop = SupportUpdate::Row {
            table: 0,
            row: 1,
            changes: vec![(1, "f".into()), (2, 99.into())],
        };
        assert_eq!(with_noop.signature(&db), s);
        // Int/Float cells that compare equal produce identical instances,
        // hence identical signatures.
        let as_float = SupportUpdate::Row {
            table: 0,
            row: 1,
            changes: vec![(2, Value::Float(99.0))],
        };
        assert_eq!(as_float.signature(&db), s);
        // A different target cell must (overwhelmingly) differ.
        let other = SupportUpdate::Row {
            table: 0,
            row: 0,
            changes: vec![(2, 99.into())],
        };
        assert_ne!(other.signature(&db), s);
    }
}
