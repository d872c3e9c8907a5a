//! Crash-recovery edge cases for the durable market ledger.
//!
//! Each test builds a real market session against a ledger directory,
//! damages (or doesn't) the on-disk state the way a crash would, and
//! checks that [`Qirana::recover`] rebuilds the broker — bitwise, for
//! every balance — or refuses with the right typed error. The crash-point
//! *matrix* (killing a session at every byte of the log) lives in the
//! workspace-level `tests/crash_matrix.rs`; these are the targeted
//! boundary cases plus a property test over random sessions.

// Test harness: helper fns outside #[test] items still abort on broken
// fixtures by design, like the other integration suites.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use qirana_core::ledger::scan_log;
use qirana_core::{
    ledger, BrokerError, LedgerConfig, LedgerError, LedgerEvent, PricingFunction, Qirana,
    QiranaConfig, SupportConfig,
};
use qirana_sqlengine::{CellWrite, ColumnDef, DataType, Database, TableSchema, Value};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn db() -> Database {
    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("grp", DataType::Str),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id"],
        ),
        (0..10i64)
            .map(|i| {
                vec![
                    i.into(),
                    ["a", "b", "c"][i as usize % 3].into(),
                    (i * 7 % 13).into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db
}

fn cfg(function: PricingFunction) -> QiranaConfig {
    QiranaConfig {
        function,
        support: SupportConfig {
            size: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

const POOL: [&str; 4] = [
    "SELECT v FROM T WHERE v > 4",
    "SELECT grp, count(*) FROM T GROUP BY grp",
    "SELECT sum(v) FROM T",
    "SELECT grp FROM T WHERE v <= 6",
];

/// A fresh, empty market directory unique to this test invocation.
fn market_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("qirana-recovery-{}-{tag}-{n}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every buyer's `(paid, coverage)` as raw bits: the equality we demand
/// of recovery is bitwise, not approximate.
fn state_of(broker: &Qirana) -> BTreeMap<String, (u64, u64)> {
    broker
        .buyer_names()
        .into_iter()
        .map(|name| {
            let paid = broker.buyer_paid(&name).unwrap().to_bits();
            let cov = broker.buyer_coverage(&name).unwrap().to_bits();
            (name, (paid, cov))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Edge case 1: empty log (market opened, nothing ever bought)
// ---------------------------------------------------------------------------

#[test]
fn empty_log_recovers_to_genesis() {
    let dir = market_dir("empty");
    drop(
        Qirana::open(
            db(),
            cfg(PricingFunction::WeightedCoverage),
            LedgerConfig::new(&dir),
        )
        .unwrap(),
    );

    let mut recovered = Qirana::recover(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap();
    assert!(recovered.buyer_names().is_empty(), "no accounts at genesis");

    // The rebuilt broker prices exactly like a never-persisted one …
    let fresh = Qirana::new(db(), cfg(PricingFunction::WeightedCoverage)).unwrap();
    assert_eq!(
        recovered.quote(POOL[0]).unwrap().to_bits(),
        fresh.quote(POOL[0]).unwrap().to_bits()
    );
    // … and stays durable: new purchases append to the recovered log.
    recovered.buy("alice", POOL[0]).unwrap();
    assert_eq!(recovered.ledger().unwrap().last_seq(), 1);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn never_opened_directory_recovers_to_genesis() {
    // Recovery of a directory with no market at all (no log, no snapshot)
    // is a fresh market, not an error: the log is re-initialized.
    let dir = market_dir("missing");
    let recovered = Qirana::recover(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap();
    assert!(recovered.buyer_names().is_empty());
    assert_eq!(recovered.ledger().unwrap().next_seq(), 1);
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Edge case 2: snapshot-only (log compacted down to its marker)
// ---------------------------------------------------------------------------

#[test]
fn snapshot_only_log_restores_accounts_and_rows() {
    let dir = market_dir("snaponly");
    let control;
    {
        // Cadence 1: every purchase triggers snapshot + compaction, so on
        // exit the log holds nothing but the latest snapshot marker.
        let ledger_cfg = LedgerConfig::new(&dir).with_snapshot_every(1);
        let mut broker =
            Qirana::open(db(), cfg(PricingFunction::WeightedCoverage), ledger_cfg).unwrap();
        broker.buy("alice", POOL[0]).unwrap();
        broker.buy("alice", POOL[1]).unwrap();
        broker.buy("bob", POOL[2]).unwrap();
        control = state_of(&broker);

        let bytes = fs::read(LedgerConfig::new(&dir).log_path()).unwrap();
        let scan = scan_log(&bytes).unwrap();
        assert_eq!(scan.records.len(), 1, "compaction left only the marker");
        assert!(matches!(
            scan.records[0].event,
            LedgerEvent::SnapshotTaken { .. }
        ));
    }

    let mut recovered = Qirana::recover(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap();
    assert_eq!(state_of(&recovered), control);
    // History survives: re-buying an owned query is free after recovery.
    assert_eq!(recovered.buy("alice", POOL[0]).unwrap().price, 0.0);
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Edge case 3: trailing torn record (crash mid-append)
// ---------------------------------------------------------------------------

#[test]
fn torn_tail_is_truncated_to_the_last_complete_record() {
    let dir = market_dir("torn");
    let log_path = LedgerConfig::new(&dir).log_path();
    let mid_state;
    {
        let mut broker = Qirana::open(
            db(),
            cfg(PricingFunction::WeightedCoverage),
            LedgerConfig::new(&dir),
        )
        .unwrap();
        broker.buy("alice", POOL[0]).unwrap();
        mid_state = state_of(&broker);
        broker.buy("alice", POOL[1]).unwrap();
    }
    let full = fs::read(&log_path).unwrap();
    let scan = scan_log(&full).unwrap();
    assert_eq!(scan.records.len(), 2);

    // Tear the second record a few bytes into its frame — exactly what a
    // crash mid-`write` leaves behind.
    let cut = scan.records[1].offset as usize + 5;
    fs::write(&log_path, &full[..cut]).unwrap();

    let recovered = Qirana::recover(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap();
    assert_eq!(
        state_of(&recovered),
        mid_state,
        "recovery keeps the first purchase, drops the torn second"
    );
    // The tail was physically removed, so a second recovery is clean.
    assert_eq!(
        fs::read(&log_path).unwrap().len() as u64,
        scan.records[1].offset
    );
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Edge case 4: checksum corruption mid-log (NOT crash-explicable)
// ---------------------------------------------------------------------------

#[test]
fn corrupted_middle_record_is_a_hard_typed_error() {
    let dir = market_dir("corrupt");
    let log_path = LedgerConfig::new(&dir).log_path();
    {
        let mut broker = Qirana::open(
            db(),
            cfg(PricingFunction::WeightedCoverage),
            LedgerConfig::new(&dir),
        )
        .unwrap();
        broker.buy("alice", POOL[0]).unwrap();
        broker.buy("bob", POOL[1]).unwrap();
    }
    let mut bytes = fs::read(&log_path).unwrap();
    let scan = scan_log(&bytes).unwrap();
    assert_eq!(scan.records.len(), 2);

    // Flip one payload bit of the FIRST record. A later record follows,
    // so no crash explains this: it must be a hard error, never a silent
    // truncation that would forget alice's balance.
    let victim = scan.records[0].offset as usize + 16;
    bytes[victim] ^= 0x40;
    fs::write(&log_path, &bytes).unwrap();

    let err = Qirana::recover(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap_err();
    match err {
        BrokerError::Ledger(LedgerError::Corrupt { offset, .. }) => {
            assert_eq!(offset, scan.records[0].offset);
        }
        other => panic!("expected LedgerError::Corrupt, got {other}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_logged_price_is_replay_divergence() {
    // Rewrite a logged purchase with a different price but a *valid*
    // checksum: recovery re-prices the purchase and must notice the
    // logged market lied.
    let dir = market_dir("tamper");
    let log_path = LedgerConfig::new(&dir).log_path();
    {
        let mut broker = Qirana::open(
            db(),
            cfg(PricingFunction::WeightedCoverage),
            LedgerConfig::new(&dir),
        )
        .unwrap();
        broker.buy("alice", POOL[0]).unwrap();
    }
    let bytes = fs::read(&log_path).unwrap();
    let scan = scan_log(&bytes).unwrap();
    let (buyer, sql, price, total_paid) = match &scan.records[0].event {
        LedgerEvent::PurchaseCommitted {
            buyer,
            sql,
            price,
            total_paid,
        } => (buyer.clone(), sql.clone(), *price, *total_paid),
        other => panic!("expected a purchase, got {other:?}"),
    };
    let forged = ledger::encode_record(
        1,
        &LedgerEvent::PurchaseCommitted {
            buyer,
            sql,
            price: price + 1.0,
            total_paid: total_paid + 1.0,
        },
    )
    .unwrap();
    let mut rewritten = bytes[..scan.records[0].offset as usize].to_vec();
    rewritten.extend_from_slice(&forged);
    fs::write(&log_path, &rewritten).unwrap();

    let err = Qirana::recover(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            BrokerError::Ledger(LedgerError::ReplayDiverged { seq: 1, .. })
        ),
        "expected ReplayDiverged, got {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Seller updates: one logged event, exactly the writes applied
// ---------------------------------------------------------------------------

fn cell(table: usize, row: usize, col: usize, v: i64) -> CellWrite {
    CellWrite {
        table,
        row,
        col,
        value: Value::Int(v),
    }
}

#[test]
fn a_committed_update_logs_exactly_the_writes_it_applied() {
    let dir = market_dir("update-writes");
    let function = PricingFunction::WeightedCoverage;
    let mut broker = Qirana::open(db(), cfg(function), LedgerConfig::new(&dir)).unwrap();
    let changed = broker
        .commit_update("UPDATE T SET v = v + 1 WHERE grp = 'a'")
        .unwrap();
    // grp = 'a' on rows 0, 3, 6, 9, whose v is i * 7 % 13.
    let expected: Vec<CellWrite> = [0, 3, 6, 9]
        .into_iter()
        .map(|i| cell(0, i, 2, (i as i64 * 7 % 13) + 1))
        .collect();
    assert_eq!(changed, expected.len());
    for w in &expected {
        assert_eq!(broker.db().table_at(0).rows[w.row][w.col], w.value);
    }
    let scan = scan_log(&fs::read(LedgerConfig::new(&dir).log_path()).unwrap()).unwrap();
    assert_eq!(scan.records.len(), 1, "one record per update");
    let logged = LedgerEvent::WritesCommitted { writes: expected };
    assert_eq!(scan.records[0].event, logged);
    drop(broker);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_write_outside_the_database_is_refused_before_it_is_logged() {
    let dir = market_dir("write-outside");
    let mut broker = Qirana::open(
        db(),
        cfg(PricingFunction::WeightedCoverage),
        LedgerConfig::new(&dir),
    )
    .unwrap();
    let rows = broker.db().table_at(0).rows.clone();
    // Past the last row, past the last column, and a table that is not there.
    for bad in [cell(0, 99, 2, 100), cell(0, 0, 3, 100), cell(1, 0, 0, 100)] {
        let err = broker
            .commit_writes(&[cell(0, 0, 2, 100), bad])
            .unwrap_err();
        assert!(
            matches!(err, BrokerError::Engine(_)),
            "expected an engine error, got {err}"
        );
        assert_eq!(broker.db().table_at(0).rows, rows, "nothing applied");
        assert_eq!(broker.ledger().unwrap().last_seq(), 0, "nothing logged");
    }
    drop(broker);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_logged_write_outside_the_database_is_replay_divergence() {
    let dir = market_dir("replay-outside");
    let log_path = LedgerConfig::new(&dir).log_path();
    let function = PricingFunction::WeightedCoverage;
    {
        let mut broker = Qirana::open(db(), cfg(function), LedgerConfig::new(&dir)).unwrap();
        broker.buy("alice", POOL[0]).unwrap();
    }
    let mut bytes = fs::read(&log_path).unwrap();
    let forged = LedgerEvent::WritesCommitted {
        writes: vec![cell(0, 99, 2, 100)],
    };
    bytes.extend_from_slice(&ledger::encode_record(2, &forged).unwrap());
    fs::write(&log_path, &bytes).unwrap();

    let err = Qirana::recover(db(), cfg(function), LedgerConfig::new(&dir)).unwrap_err();
    assert!(
        matches!(
            err,
            BrokerError::Ledger(LedgerError::ReplayDiverged { seq: 2, .. })
        ),
        "expected ReplayDiverged, got {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Property: a durable market prices random sessions bitwise like a
// ledger-less one and recovers to its live state; and it recovers
// bitwise-identically at EVERY record boundary, for both pricing families.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn every_record_boundary_recovers_bitwise_identically(
        session in prop::collection::vec((0usize..4, any::<bool>()), 1..5),
        entropy in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let buyer = |second_buyer: bool| if second_buyer { "bob" } else { "alice" };
        // Checkpoint a ledger-less control market after every purchase.
        let mut control = Qirana::new(db(), cfg(function)).unwrap();
        let mut prices = Vec::new();
        let mut checkpoints = vec![state_of(&control)];
        for &(qi, second_buyer) in &session {
            prices.push(control.buy(buyer(second_buyer), POOL[qi]).unwrap().price.to_bits());
            checkpoints.push(state_of(&control));
        }

        // Cadence 0 keeps the log a pure WAL, so record k ↔ checkpoint k.
        let dir = &market_dir("prop");
        let ledger_cfg = LedgerConfig::new(dir).with_snapshot_every(0);
        let mut broker = Qirana::open(db(), cfg(function), ledger_cfg).unwrap();
        for (k, &(qi, second_buyer)) in session.iter().enumerate() {
            let price = broker.buy(buyer(second_buyer), POOL[qi]).unwrap().price;
            prop_assert_eq!(
                price.to_bits(),
                prices[k],
                "purchase {} priced apart from the ledger-less market",
                k
            );
            prop_assert_eq!(&state_of(&broker), &checkpoints[k + 1]);
        }
        drop(broker);
        let recovered = Qirana::recover(db(), cfg(function), LedgerConfig::new(dir)).unwrap();
        prop_assert_eq!(
            &state_of(&recovered),
            &checkpoints[session.len()],
            "recovery differs from the live market"
        );

        let bytes = fs::read(LedgerConfig::new(dir).log_path()).unwrap();
        let scan = scan_log(&bytes).unwrap();
        prop_assert_eq!(scan.records.len(), session.len());

        let replay_dir = market_dir("prop-replay");
        let replay_log = LedgerConfig::new(&replay_dir).log_path();
        for (k, expected) in checkpoints.iter().enumerate() {
            let cut = if k == 0 {
                8 // just the magic: a market that crashed before any buy
            } else {
                scan.records[k - 1].end as usize
            };
            fs::write(&replay_log, &bytes[..cut]).unwrap();
            let recovered =
                Qirana::recover(db(), cfg(function), LedgerConfig::new(&replay_dir)).unwrap();
            prop_assert_eq!(
                state_of(&recovered),
                expected.clone(),
                "prefix of {} record(s) diverges ({:?})",
                k,
                function
            );
        }
        fs::remove_dir_all(dir).ok();
        fs::remove_dir_all(&replay_dir).ok();
    }
}
