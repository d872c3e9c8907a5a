//! The sweep-scoped scan memo.
//!
//! A pricing sweep executes one plan many times on one stored database:
//! its base run, one batched probe per relation, per-instance executions.
//! Each of them overrides or patches at most one table, so every other
//! relation they read is the same stored table under the same pushed-down
//! filter, hashed on the same join keys. [`SweepScans`] keeps, per
//! (table, prefilter, build keys), what the executor derives from the
//! stored rows — the positions of the rows the prefilter keeps, and the
//! hash index on the build keys — so the second execution that needs one
//! borrows it instead of scanning the table again.
//!
//! Every entry is a pure function of the stored rows and its key:
//!
//! * it is only read by an execution whose [`crate::ExecContext`] holds
//!   the very database it was built from (checked by pointer), that reads
//!   the table with no override and no patch, in a block run with no outer
//!   row and under no budget;
//! * prefilters and equi-join keys never hold subqueries (such conjuncts
//!   are residuals), so nothing but the stored rows feeds them;
//! * keys compare strictly: the derived `PartialEq` of
//!   [`PExpr`] treats `Literal(Int(4))` and `Literal(Float(4.0))` as equal,
//!   and `v * 4` wraps where `v * 4.0` does not;
//! * only a derivation that succeeded is stored; an eval error propagates
//!   and leaves nothing behind.
//!
//! A hit therefore hands back the rows and index positions, in the order,
//! that a miss would build, and every output is bitwise the one a
//! memo-free execution produces. The memo lives for one borrow of the
//! database, so nothing is ever invalidated; it is only looked up, never
//! iterated.

use crate::database::Database;
use crate::plan::PExpr;
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// A hash-join index: build-key values → positions, in the order the
/// build side's rows were read.
pub(crate) type JoinIndex = HashMap<Vec<Value>, Vec<u32>>;

/// Expressions under strict equality: the derived `PartialEq` of their
/// trees *and* the variant and bits of every literal, in walk order.
#[derive(Clone)]
pub(crate) struct Strict {
    exprs: Vec<PExpr>,
    /// Per node in walk order: a literal's variant and bits, a slot's
    /// index. Hashed; the trees themselves are only compared.
    sig: Vec<u64>,
}

impl Strict {
    pub(crate) fn new(exprs: Vec<PExpr>) -> Strict {
        let mut sig = Vec::new();
        for e in &exprs {
            e.walk(&mut |node| match node {
                PExpr::Literal(v) => sig.extend(literal_bits(v)),
                PExpr::Slot(s) => sig.push(*s as u64),
                _ => {}
            });
        }
        Strict { exprs, sig }
    }

    pub(crate) fn exprs(&self) -> &[PExpr] {
        &self.exprs
    }
}

/// A literal's variant tag and bits. Strings compare by content through
/// the trees, so their tag alone is enough here.
fn literal_bits(v: &Value) -> [u64; 2] {
    match v {
        Value::Null => [0, 0],
        Value::Bool(b) => [1, u64::from(*b)],
        Value::Int(i) => [2, *i as u64],
        Value::Float(f) => [3, f.to_bits()],
        Value::Date(d) => [4, *d as u64],
        Value::Str(_) => [5, 0],
    }
}

impl PartialEq for Strict {
    fn eq(&self, other: &Self) -> bool {
        self.sig == other.sig && self.exprs == other.exprs
    }
}

impl Eq for Strict {}

impl Hash for Strict {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.sig.hash(state);
        self.exprs.len().hash(state);
    }
}

/// A stored table under a prefilter (local slots, conjunct order kept).
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct ScanKey {
    table: usize,
    filter: Strict,
}

impl ScanKey {
    pub(crate) fn new(table: usize, filter: Vec<PExpr>) -> ScanKey {
        ScanKey {
            table,
            filter: Strict::new(filter),
        }
    }

    pub(crate) fn filter(&self) -> &[PExpr] {
        self.filter.exprs()
    }
}

/// A prefiltered stored table hashed on build keys (local slots).
#[derive(PartialEq, Eq, Hash)]
struct IndexKey {
    scan: ScanKey,
    build: Strict,
}

/// The scan memo of one sweep over one stored database; see the module
/// docs. Attach it to every execution of the sweep with
/// [`crate::ExecContext::with_scans`].
pub struct SweepScans<'db> {
    db: &'db Database,
    rows: RefCell<HashMap<ScanKey, Rc<[u32]>>>,
    indexes: RefCell<HashMap<IndexKey, Rc<JoinIndex>>>,
    reuses: Cell<u64>,
}

impl<'db> SweepScans<'db> {
    /// An empty memo bound to `db`.
    pub fn new(db: &'db Database) -> Self {
        SweepScans {
            db,
            rows: RefCell::new(HashMap::new()),
            indexes: RefCell::new(HashMap::new()),
            reuses: Cell::new(0),
        }
    }

    /// How many lookups found an entry: each is one table scan (or one
    /// hash-index build) an execution did not redo.
    pub fn reuses(&self) -> u64 {
        self.reuses.get()
    }

    /// Stored entries: prefiltered row sets plus join indexes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.borrow().len() + self.indexes.borrow().len()
    }

    /// True iff the memo was built from `db` (the same value, not an equal
    /// one).
    pub(crate) fn binds(&self, db: &Database) -> bool {
        std::ptr::eq(self.db, db)
    }

    fn hit<T>(&self, found: Option<T>) -> Option<T> {
        if found.is_some() {
            self.reuses.set(self.reuses.get() + 1);
        }
        found
    }

    /// The stored positions of the rows `key`'s prefilter keeps.
    pub(crate) fn rows(&self, key: &ScanKey) -> Option<Rc<[u32]>> {
        self.hit(self.rows.borrow().get(key).cloned())
    }

    pub(crate) fn store_rows(&self, key: ScanKey, keep: Rc<[u32]>) {
        self.rows.borrow_mut().insert(key, keep);
    }

    /// The join index of `scan`'s rows on `build`; positions index the
    /// prefiltered rows.
    pub(crate) fn index(&self, scan: &ScanKey, build: &[PExpr]) -> Option<Rc<JoinIndex>> {
        let key = IndexKey {
            scan: scan.clone(),
            build: Strict::new(build.to_vec()),
        };
        self.hit(self.indexes.borrow().get(&key).cloned())
    }

    pub(crate) fn store_index(&self, scan: ScanKey, build: Vec<PExpr>, index: JoinIndex) {
        let key = IndexKey {
            scan,
            build: Strict::new(build),
        };
        self.indexes.borrow_mut().insert(key, Rc::new(index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;

    fn times(lit: Value) -> PExpr {
        PExpr::Binary {
            left: Box::new(PExpr::Slot(2)),
            op: BinaryOp::Mul,
            right: Box::new(PExpr::Literal(lit)),
        }
    }

    #[test]
    fn keys_tell_numerically_equal_literals_apart() {
        let int = ScanKey::new(0, vec![times(Value::Int(4))]);
        let float = ScanKey::new(0, vec![times(Value::Float(4.0))]);
        assert!(times(Value::Int(4)) == times(Value::Float(4.0)));
        assert!(int != float);
        let zero = ScanKey::new(0, vec![times(Value::Float(0.0))]);
        let neg = ScanKey::new(0, vec![times(Value::Float(-0.0))]);
        assert!(zero != neg);
        assert!(int == ScanKey::new(0, vec![times(Value::Int(4))]));
        assert!(int != ScanKey::new(1, vec![times(Value::Int(4))]));
    }
}
