//! Optimized disagreement detection for SPJ shapes (§4: Algorithms 4 and
//! 6 + batching).
//!
//! For each support update the checks proceed from cheapest to most
//! expensive, and every verdict produced is **exact** (equal to what the
//! naive engine would decide) — anything inconclusive falls through to a
//! dynamic check:
//!
//! 1. **relation not referenced** → agrees;
//! 2. **irrelevant update** (effectively changes only columns the query
//!    never reads) → agrees — both decided by the engine's shared
//!    visibility test ([`crate::engine::visibility`]), which hands this
//!    module the effective changed columns `B` of every update it lets
//!    through;
//! 3. for a *non-contributing* tuple: if no replacement tuple satisfies the
//!    relation-local condition `C[u⁺]` → agrees; otherwise probe
//!    `Q((D ∖ R) ∪ {u⁺})` for emptiness — batched across updates via the
//!    widened `R⁺` relation (§4.2);
//! 4. for a *contributing* tuple: static disagreement when the update hits
//!    an identity-projected column (row updates) or when every replacement
//!    fails `C[u⁺]`; the remainder compares `Q((D ∖ R) ∪ {u⁻})` against
//!    `Q((D ∖ R) ∪ {u⁺})` (batched).
//!
//! Note the printed Algorithm 6 declares a disagreement whenever a swap
//! touches a projected attribute; that is *not* exact (swapping a projected
//! column between two contributing tuples can leave the output bag
//! unchanged — the paper's own `SELECT age FROM User` discussion in §3.2
//! relies on this). We use the dynamic comparison instead, which Lemma A.2
//! makes exact.
//!
//! Aggregate shapes are not handled here. The paper's Algorithm 5 adds
//! static group-key and aggregate-argument checks and re-executes the query
//! for every contributing-tuple update they leave open ("cannot be
//! batched"); [`crate::delta`]'s per-group accumulators decide those
//! neighbors exactly from one batched execution per relation, so coverage
//! sweeps over aggregates read them instead (DESIGN.md §4, §9).
//!
//! **Exactness is also what makes the per-query verdicts memoizable.** The
//! bitmap this module produces for a query is a pure function of the query
//! plan and the (stored database, support set) pair — never of the buyer,
//! the active set (which only suppresses work, each verdict being decided
//! per update), or the batching/parallelism configuration. Those bitmaps
//! are exactly the artifacts [`crate::cache::PricingCache`] memoizes for
//! incremental history-aware pricing: a cached entry computed through this
//! optimizer can be replayed for any buyer and masked with any charged
//! bitmap, bit-for-bit as if recomputed.

use crate::engine::{bag_fp, run_plan, EngineOptions, Visible};
use crate::normal_form::{RelShape, SpjShape};
use crate::parallel::fan_out;
use crate::update::SupportUpdate;
use qirana_sqlengine::exec::eval_row_expr;
use qirana_sqlengine::{
    Database, EngineError, ExecContext, Fingerprint, QueryOutput, ResolvedSelect, Row, Value,
};
use std::collections::{BTreeMap, HashSet};

type Result<T> = std::result::Result<T, EngineError>;

/// Pending `(support index, u⁻ rows, u⁺ rows)` dynamic comparisons, one
/// bucket per relation.
type CmpQueue = Vec<Vec<(usize, Vec<Row>, Vec<Row>)>>;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn key_of(row: &Row, pk_cols: &[usize]) -> Vec<Value> {
    pk_cols.iter().map(|&c| row[c].clone()).collect()
}

/// Executes the keyed query once and collects, per relation, the set of
/// primary keys of contributing tuples (`π_P(Q̂(D))`).
fn contributing_sets(
    db: &Database,
    keyed: &ResolvedSelect,
    ranges: &[std::ops::Range<usize>],
    opts: &EngineOptions,
) -> Result<Vec<HashSet<Vec<Value>>>> {
    let ctx = ExecContext::new(db).with_budget(opts.budget);
    let out = run_plan(&opts.telemetry, keyed, &ctx)?;
    let mut sets: Vec<HashSet<Vec<Value>>> = vec![HashSet::new(); ranges.len()];
    for row in &out.rows {
        for (set, range) in sets.iter_mut().zip(ranges) {
            set.insert(row[range.clone()].to_vec());
        }
    }
    Ok(sets)
}

/// True iff the tuple satisfies every relation-local WHERE conjunct
/// (three-valued: a NULL outcome also disqualifies the tuple).
fn local_sat(db: &Database, rel: &RelShape, row: &Row) -> Result<bool> {
    let ctx = ExecContext::new(db);
    for c in &rel.local_condition {
        if eval_row_expr(c, row, &ctx)?.as_bool3() != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn with_upid(rows: &[Row], idx: usize) -> impl Iterator<Item = Row> + '_ {
    rows.iter().map(move |r| {
        let mut w = r.clone();
        w.push(Value::Int(idx as i64));
        w
    })
}

/// Groups probe output rows by their trailing `upid` column and bag-
/// fingerprints each group.
fn per_upid_fps(out: QueryOutput) -> Result<BTreeMap<i64, Fingerprint>> {
    let ncols = out.columns.len();
    // BTreeMap: the map is iterated below, and per-update fingerprints
    // must be produced in upid order for the pass to be deterministic.
    let mut groups: BTreeMap<i64, Vec<Row>> = BTreeMap::new();
    for row in out.rows {
        // The probe plan appends upid as an integer literal column.
        let upid = row[ncols - 1]
            .as_i64()
            .ok_or_else(|| EngineError::internal("probe upid column was not an integer"))?;
        groups.entry(upid).or_default().push(row);
    }
    Ok(groups
        .into_iter()
        .map(|(upid, rows)| {
            let fp = bag_fp(QueryOutput {
                columns: out.columns.clone(),
                rows,
                ordered: false,
            });
            (upid, fp)
        })
        .collect())
}

// ---------------------------------------------------------------------------
// SPJ queries: Algorithms 4 & 6 with batching
// ---------------------------------------------------------------------------

/// Disagreement bits for an SPJ-shaped query over the visible neighborhood
/// updates; `batch` selects §4.2's batched dynamic checks.
pub fn spj_disagreements(
    db: &Database,
    shape: &SpjShape,
    updates: &[SupportUpdate],
    visible: &[Visible],
    batch: bool,
    opts: &EngineOptions,
) -> Result<Vec<bool>> {
    let n = updates.len();
    let mut bits = vec![false; n];
    let contrib = contributing_sets(db, &shape.keyed, &shape.keyed_ranges, opts)?;

    let nrels = shape.relations.len();
    let mut check_new: Vec<Vec<(usize, Vec<Row>)>> = vec![Vec::new(); nrels];
    let mut check_cmp: CmpQueue = vec![Vec::new(); nrels];

    for (i, up) in updates.iter().enumerate() {
        let Some(changed) = &visible[i] else {
            continue; // masked out, or invisible to the query → agrees
        };
        let Some(rel) = shape.relations.iter().find(|r| r.table == up.table()) else {
            continue;
        };
        let (old_rows, new_rows) = up.old_new_rows(db);
        let contributes = old_rows
            .iter()
            .any(|r| contrib[rel.rel_idx].contains(&key_of(r, &rel.pk_cols)));
        let mut sat_new = Vec::new();
        for r in &new_rows {
            if local_sat(db, rel, r)? {
                sat_new.push(r.clone());
            }
        }

        if !contributes {
            if sat_new.is_empty() {
                continue; // u⁺ can never join → agrees
            }
            check_new[rel.rel_idx].push((i, sat_new));
        } else {
            if sat_new.is_empty() {
                // Contributing rows vanish, nothing replaces them.
                bits[i] = true;
                continue;
            }
            if let SupportUpdate::Row { .. } = up {
                // Exact: an effectively changed identity-projected
                // attribute of a contributing tuple always perturbs the
                // output bag.
                let hit = changed
                    .iter()
                    .any(|&c| shape.identity_projected_slots.contains(&(rel.offset + c)));
                if hit {
                    bits[i] = true;
                    continue;
                }
            }
            check_cmp[rel.rel_idx].push((i, old_rows, new_rows));
        }
    }

    // Resolve the dynamic checks.
    for rel in &shape.relations {
        let news = &check_new[rel.rel_idx];
        let cmps = &check_cmp[rel.rel_idx];
        let probe = |rows: &[Row]| {
            let ctx = ExecContext::with_override(db, rel.table, rows).with_budget(opts.budget);
            run_plan(&opts.telemetry, &shape.probes[rel.rel_idx], &ctx)
        };

        if batch {
            if !news.is_empty() {
                let rows: Vec<Row> = news
                    .iter()
                    .flat_map(|(i, rows)| with_upid(rows, *i))
                    .collect();
                let out = probe(&rows)?;
                let ncols = out.columns.len();
                for row in &out.rows {
                    // The probe plan appends upid as an integer column.
                    let upid = row[ncols - 1].as_i64().ok_or_else(|| {
                        EngineError::internal("probe upid column was not an integer")
                    })? as usize;
                    bits[upid] = true;
                }
            }
            if !cmps.is_empty() {
                let old_rows: Vec<Row> = cmps
                    .iter()
                    .flat_map(|(i, old, _)| with_upid(old, *i))
                    .collect();
                let new_rows: Vec<Row> = cmps
                    .iter()
                    .flat_map(|(i, _, new)| with_upid(new, *i))
                    .collect();
                let old_fps = per_upid_fps(probe(&old_rows)?)?;
                let new_fps = per_upid_fps(probe(&new_rows)?)?;
                for (i, _, _) in cmps {
                    let key = *i as i64;
                    if old_fps.get(&key) != new_fps.get(&key) {
                        bits[*i] = true;
                    }
                }
            }
        } else {
            // One probe (pair) per update, alone in the widened relation.
            let flags = fan_out(
                news.len() + cmps.len(),
                opts.parallelism,
                &opts.telemetry,
                |j| {
                    let alone = |i, rows| probe(&with_upid(rows, i).collect::<Vec<Row>>());
                    match news.get(j) {
                        Some((i, rows)) => Ok((*i, !alone(*i, rows)?.rows.is_empty())),
                        None => {
                            let (i, old, new) = &cmps[j - news.len()];
                            Ok((*i, bag_fp(alone(*i, old)?) != bag_fp(alone(*i, new)?)))
                        }
                    }
                },
            )?;
            for (i, disagrees) in flags {
                if disagrees {
                    bits[i] = true;
                }
            }
        }
    }
    Ok(bits)
}
