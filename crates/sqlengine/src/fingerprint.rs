//! Order-independent 128-bit result fingerprints.
//!
//! QIRANA's pricing algorithms never compare query outputs row by row — they
//! only test *agreement*: `Q(D) =? Q(D')` (Algorithms 1–3 of the paper hash
//! the output). We fingerprint a result as a 128-bit value:
//!
//! * each row hashes to a 128-bit value via two independently-seeded 64-bit
//!   mixers (position-sensitive within the row);
//! * an unordered result combines row hashes with wrapping addition, which is
//!   commutative and multiset-sensitive (duplicate rows shift the sum), so
//!   bag semantics are respected;
//! * an `ORDER BY` result chains row hashes sequentially instead, making the
//!   fingerprint order-sensitive.
//!
//! Collisions are a *pricing* correctness concern, not just a hashing one: a
//! colliding pair of distinct outputs zeroes a disagreement bit and
//! underprices the query. Two sources must be distinguished:
//!
//! * **Random 128-bit collisions.** Across the `S ≤ 10⁶` agreement tests of
//!   a pricing call the birthday bound gives probability below
//!   `S² / 2¹²⁹ < 10⁻²⁶` — far below any measurable effect on prices.
//! * **Structural collisions** from value canonicalization. Equal values
//!   must fingerprint equally (`1` and `1.0` collide *by design* because
//!   `sql_eq` groups them together), but the canonical form must be
//!   lossless: an earlier revision canonicalized every integer through an
//!   `i64 → f64` cast, which is deterministic — probability 1, not 10⁻²⁶ —
//!   in collapsing distinct integers beyond 2^53 (`2^53` and `2^53 + 1`
//!   fingerprinted identically). Integers with no exact `f64` now hash
//!   their own bits under a distinct tag (see `write_value`), so only
//!   genuinely equal numerics share a fingerprint.

use crate::exec::QueryOutput;
use crate::value::{lossless_f64, Value};

/// A 128-bit fingerprint of a query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

const SEED_LO: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_HI: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// splitmix64 finalizer — a fast, well-distributed 64-bit mixer. The one
/// copy in the workspace: plan fingerprints, ledger checksums and seeded
/// failpoints mix with it too.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental 2×64-bit hasher.
#[derive(Clone, Copy)]
struct H2 {
    lo: u64,
    hi: u64,
}

impl H2 {
    fn new(seed_lo: u64, seed_hi: u64) -> Self {
        H2 {
            lo: seed_lo,
            hi: seed_hi,
        }
    }

    #[inline]
    fn write(&mut self, w: u64) {
        self.lo = mix64(self.lo ^ w);
        self.hi = mix64(self.hi.rotate_left(23) ^ w.wrapping_mul(SEED_HI));
    }

    fn finish(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

fn write_value(h: &mut H2, v: &Value) {
    match v {
        Value::Null => h.write(0x10),
        Value::Bool(b) => {
            h.write(0x20);
            h.write(*b as u64);
        }
        // Ints and floats that compare equal must fingerprint equally
        // (mirrors Value's Hash impl). An integer with no exact f64 equals
        // no float; it hashes its own bits under a distinct tag so 2^53
        // and 2^53 + 1 stay distinguishable.
        Value::Int(i) => match lossless_f64(*i) {
            Some(f) => {
                h.write(0x30);
                h.write(f.to_bits());
            }
            None => {
                h.write(0x31);
                h.write(*i as u64);
            }
        },
        Value::Float(f) => {
            h.write(0x30);
            let f = if *f == 0.0 { 0.0 } else { *f };
            h.write(f.to_bits());
        }
        Value::Date(d) => {
            h.write(0x40);
            h.write(*d as u64);
        }
        Value::Str(s) => {
            h.write(0x50);
            h.write(s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                h.write(u64::from_le_bytes(buf));
            }
        }
    }
}

fn row_hash(row: &[Value]) -> u128 {
    let mut h = H2::new(SEED_LO, SEED_HI);
    h.write(row.len() as u64);
    for v in row {
        write_value(&mut h, v);
    }
    h.finish()
}

/// The per-row hash an unordered [`fingerprint`] sums: exposed so the
/// pricing layer's incremental (delta) evaluator can adjust a cached bag
/// fingerprint by adding/removing individual row contributions instead of
/// re-hashing the whole output. Uses the same lossless value
/// canonicalization as [`fingerprint`], so `sql_eq`-equal rows hash
/// equally.
pub fn output_row_hash(row: &[Value]) -> u128 {
    row_hash(row)
}

fn header(out: &QueryOutput) -> u128 {
    out.rows.len() as u128 ^ ((out.columns.len() as u128) << 64)
}

/// Fingerprints a query output (bag-equality for unordered results,
/// sequence-equality for ordered ones).
pub fn fingerprint(out: &QueryOutput) -> Fingerprint {
    if !out.ordered {
        return bag_fingerprint(out);
    }
    let mut acc = header(out);
    for r in &out.rows {
        // Sequential chaining: order-sensitive.
        acc = acc
            .rotate_left(1)
            .wrapping_mul(0x1000_0000_0000_0000_0000_0000_0000_0159)
            ^ row_hash(r);
    }
    Fingerprint(acc)
}

/// The unordered [`fingerprint`] of an output whatever its `ordered` flag:
/// equal exactly when the two outputs hold the same bag of rows.
pub fn bag_fingerprint(out: &QueryOutput) -> Fingerprint {
    let sum = out.rows.iter().map(|r| row_hash(r));
    Fingerprint(sum.fold(header(out), u128::wrapping_add))
}

/// Fingerprints several outputs as one bundle: the bundle fingerprint is the
/// sequential combination of the member fingerprints (bundles are ordered —
/// `Q = (Q1, ..., Qn)`).
pub fn fingerprint_bundle(outs: &[QueryOutput]) -> Fingerprint {
    let mut acc: u128 = 0x5153_4cb9;
    for o in outs {
        acc = acc.rotate_left(5) ^ fingerprint(o).0.wrapping_mul(3);
    }
    Fingerprint(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(rows: Vec<Vec<Value>>, ordered: bool) -> QueryOutput {
        QueryOutput {
            columns: vec!["a".into()],
            rows,
            ordered,
        }
    }

    #[test]
    fn unordered_is_order_independent() {
        let a = out(vec![vec![1.into()], vec![2.into()]], false);
        let b = out(vec![vec![2.into()], vec![1.into()]], false);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn ordered_is_order_sensitive() {
        let a = out(vec![vec![1.into()], vec![2.into()]], true);
        let b = out(vec![vec![2.into()], vec![1.into()]], true);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn multiset_sensitive() {
        let a = out(vec![vec![1.into()], vec![1.into()]], false);
        let b = out(vec![vec![1.into()]], false);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn value_discrimination() {
        let a = out(vec![vec![Value::str("ab")]], false);
        let b = out(vec![vec![Value::str("ba")]], false);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c = out(vec![vec![Value::Null]], false);
        let d = out(vec![vec![Value::Int(0)]], false);
        assert_ne!(fingerprint(&c), fingerprint(&d));
    }

    #[test]
    fn int_float_equivalence() {
        let a = out(vec![vec![Value::Int(5)]], false);
        let b = out(vec![vec![Value::Float(5.0)]], false);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn large_ints_do_not_collide() {
        // Regression: the lossy i64 → f64 canonicalization fingerprinted
        // 2^53 and 2^53 + 1 identically, silently zeroing disagreement
        // bits (an underpricing bug, not just a hash quality issue).
        let p53 = 1i64 << 53;
        let a = out(vec![vec![Value::Int(p53)]], false);
        let b = out(vec![vec![Value::Int(p53 + 1)]], false);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // Equal Int/Float pairs still collide by design at the boundary.
        let c = out(vec![vec![Value::Float(p53 as f64)]], false);
        assert_eq!(fingerprint(&a), fingerprint(&c));
        // i64::MAX has no exact f64; it must not collide with the float
        // its cast rounds to, nor with its neighbors.
        let m = out(vec![vec![Value::Int(i64::MAX)]], false);
        let mf = out(vec![vec![Value::Float(i64::MAX as f64)]], false);
        let m1 = out(vec![vec![Value::Int(i64::MAX - 1)]], false);
        assert_ne!(fingerprint(&m), fingerprint(&mf));
        assert_ne!(fingerprint(&m), fingerprint(&m1));
        // A raw-bits integer must not alias the float sharing its bit
        // pattern: k below is odd and > 2^53 (no exact f64, raw-bits
        // path), while k reinterpreted as f64 is nextafter(1.0, inf).
        let k = (1.0f64.to_bits() + 1) as i64;
        let raw = out(vec![vec![Value::Int(k)]], false);
        let aliased = out(vec![vec![Value::Float(f64::from_bits(k as u64))]], false);
        assert_ne!(fingerprint(&raw), fingerprint(&aliased));
    }

    #[test]
    fn row_boundaries_matter() {
        // [("a","b")] vs [("ab","")] must differ.
        let a = QueryOutput {
            columns: vec!["x".into(), "y".into()],
            rows: vec![vec![Value::str("a"), Value::str("b")]],
            ordered: false,
        };
        let b = QueryOutput {
            columns: vec!["x".into(), "y".into()],
            rows: vec![vec![Value::str("ab"), Value::str("")]],
            ordered: false,
        };
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn bundle_order_sensitive() {
        let a = out(vec![vec![1.into()]], false);
        let b = out(vec![vec![2.into()]], false);
        assert_ne!(
            fingerprint_bundle(&[a.clone(), b.clone()]),
            fingerprint_bundle(&[b, a])
        );
    }

    #[test]
    fn empty_vs_one_null_row() {
        let a = out(vec![], false);
        let b = out(vec![vec![Value::Null]], false);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }
}
