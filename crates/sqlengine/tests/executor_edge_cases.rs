//! Executor edge cases not covered by the module unit tests: deep
//! correlation, CASE forms, NULL propagation through predicates,
//! multi-key ordering, and `DISTINCT` aggregates at the numeric edges.

use qirana_sqlengine::{
    fingerprint, query, ColumnDef, DataType, Database, EngineError, TableSchema, Value,
};

fn db() -> Database {
    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("g", DataType::Str),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id"],
        ),
        vec![
            vec![1.into(), "a".into(), 10.into()],
            vec![2.into(), "b".into(), 20.into()],
            vec![3.into(), "a".into(), 30.into()],
            vec![4.into(), "b".into(), Value::Null],
            vec![5.into(), "c".into(), 20.into()],
        ],
    );
    db.add_table(
        TableSchema::new(
            "U",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("x", DataType::Int),
            ],
            &["id"],
        ),
        vec![
            vec![1.into(), 1.into(), 7.into()],
            vec![2.into(), 1.into(), 8.into()],
            vec![3.into(), 3.into(), 9.into()],
        ],
    );
    db
}

#[test]
fn case_with_operand_form() {
    let db = db();
    let out = query(
        &db,
        "select id, case g when 'a' then 1 when 'b' then 2 else 0 end from T order by id",
    )
    .unwrap();
    let tags: Vec<i64> = out.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    assert_eq!(tags, vec![1, 2, 1, 2, 0]);
}

#[test]
fn case_without_else_yields_null() {
    let db = db();
    let out = query(
        &db,
        "select case when v > 25 then 'big' end from T where id = 1",
    )
    .unwrap();
    assert_eq!(out.rows[0][0], Value::Null);
}

#[test]
fn null_never_satisfies_comparison_filters() {
    let db = db();
    // Row 4 has v = NULL: excluded from both sides of a threshold.
    let lo = query(&db, "select count(*) from T where v <= 20").unwrap();
    let hi = query(&db, "select count(*) from T where v > 20").unwrap();
    assert_eq!(lo.rows[0][0], Value::Int(3));
    assert_eq!(hi.rows[0][0], Value::Int(1));
}

#[test]
fn not_in_with_null_element_filters_everything() {
    let db = db();
    // v NOT IN (20, NULL) is never TRUE (it is FALSE or UNKNOWN).
    let out = query(&db, "select count(*) from T where v not in (20, null)").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(0));
}

#[test]
fn is_null_and_is_not_null() {
    let db = db();
    let n = query(&db, "select count(*) from T where v is null").unwrap();
    let nn = query(&db, "select count(*) from T where v is not null").unwrap();
    assert_eq!(n.rows[0][0], Value::Int(1));
    assert_eq!(nn.rows[0][0], Value::Int(4));
}

#[test]
fn order_by_multiple_keys_mixed_direction() {
    let db = db();
    let out = query(&db, "select g, v from T order by g asc, v desc").unwrap();
    let got: Vec<(String, String)> = out
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].to_string()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("a".into(), "30".into()),
            ("a".into(), "10".into()),
            ("b".into(), "20".into()),
            ("b".into(), "NULL".into()), // NULL sorts first asc → last desc
            ("c".into(), "20".into()),
        ]
    );
}

#[test]
fn two_levels_of_correlation() {
    let db = db();
    // For each T row, does a U row exist whose x exceeds every other U.x
    // for the same T row? Exercises OuterSlot depth 1.
    let out = query(
        &db,
        "select id from T where exists (select 1 from U a where a.tid = T.id and not exists \
         (select 1 from U b where b.tid = T.id and b.x > a.x)) order by id",
    )
    .unwrap();
    let ids: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![1, 3], "rows with any U attachment qualify");
}

#[test]
fn scalar_subquery_in_projection() {
    let db = db();
    let out = query(
        &db,
        "select id, (select count(*) from U where U.tid = T.id) from T order by id",
    )
    .unwrap();
    let counts: Vec<i64> = out.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    assert_eq!(counts, vec![2, 0, 1, 0, 0]);
}

#[test]
fn having_on_average() {
    let db = db();
    let out = query(
        &db,
        "select g, avg(v) as m from T group by g having m >= 20 order by g",
    )
    .unwrap();
    // a: avg 20 ✓; b: avg 20 (null skipped) ✓; c: 20 ✓.
    assert_eq!(out.rows.len(), 3);
}

#[test]
fn group_by_expression_key() {
    let db = db();
    let out = query(
        &db,
        "select v % 20, count(*) from T where v is not null group by v % 20 order by v % 20",
    )
    .unwrap();
    assert_eq!(out.rows.len(), 2); // {0: 3 rows (20, 20, v? 10%20=10...)}
                                   // v values: 10, 20, 30, 20 → v%20: 10, 0, 10, 0.
    assert_eq!(out.rows[0], vec![Value::Int(0), Value::Int(2)]);
    assert_eq!(out.rows[1], vec![Value::Int(10), Value::Int(2)]);
}

#[test]
fn arithmetic_in_projection_and_filter() {
    let db = db();
    let out = query(
        &db,
        "select id, v * 2 + 1 from T where (v + 10) % 3 = 0 order by id",
    )
    .unwrap();
    // v ∈ {20, 20}: (30) % 3 == 0 ✓; v=10 → 20%3=2 ✗; v=30 → 40%3=1 ✗.
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0][1], Value::Int(41));
}

#[test]
fn empty_relation_behaviors() {
    let mut db = db();
    db.add_table(
        TableSchema::new(
            "E",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id"],
        ),
        vec![],
    );
    assert_eq!(
        query(&db, "select count(*), sum(v) from E").unwrap().rows,
        vec![vec![Value::Int(0), Value::Null]]
    );
    assert!(query(&db, "select * from E").unwrap().rows.is_empty());
    assert!(query(&db, "select * from T, E").unwrap().rows.is_empty());
    assert_eq!(
        query(&db, "select g, count(*) from E, T group by g")
            .unwrap()
            .rows
            .len(),
        0,
        "grouped query over empty join has no groups"
    );
}

#[test]
fn cross_join_with_residual_inequality() {
    let db = db();
    let out = query(
        &db,
        "select T.id, U.id from T, U where T.v > U.x and T.v < 25",
    )
    .unwrap();
    // T rows with 20 (ids 2, 5) paired with U.x in {7,8,9} → 6 pairs; T.v=10 beats 7,8,9? 10>7,8,9 ✓ id1 adds 3.
    assert_eq!(out.rows.len(), 9);
}

#[test]
fn distinct_on_expressions() {
    let db = db();
    let out = query(&db, "select distinct v % 20 from T where v is not null").unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn like_against_non_string_column_uses_display_form() {
    let db = db();
    let out = query(&db, "select count(*) from T where v like '2%'").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(2));
}

/// One column of values, `D(id, v)`, next to the fixture tables.
fn with_values(values: Vec<Value>, ty: DataType) -> Database {
    let mut db = db();
    db.add_table(
        TableSchema::new(
            "D",
            vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("v", ty)],
            &["id"],
        ),
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| vec![Value::Int(i as i64), v])
            .collect::<Vec<_>>(),
    );
    db
}

#[test]
fn sum_distinct_over_integers_wraps_like_sum() {
    let db = with_values(
        vec![Value::Int(i64::MAX), Value::Int(1), Value::Int(1)],
        DataType::Int,
    );
    for sql in [
        "select sum(distinct v) from D",
        "select sum(v) from D where id < 2",
    ] {
        let out = query(&db, sql).unwrap();
        assert!(matches!(out.rows[0][0], Value::Int(i64::MIN)), "{sql}");
    }
}

#[test]
fn distinct_float_aggregates_are_exact() {
    // Distinct {0.3, 0.2, 0.1}: the double nearest their exact sum is 0.6,
    // where a left fold in ascending order gives 0.6000000000000001.
    let xs = [0.3, 0.2, 0.1, 0.2];
    let db = with_values(
        xs.iter().map(|&x| Value::Float(x)).collect(),
        DataType::Float,
    );
    let out = query(
        &db,
        "select sum(distinct v), avg(distinct v), count(distinct v) from D",
    )
    .unwrap();
    assert!(matches!(out.rows[0][0], Value::Float(s) if s.to_bits() == 0.6f64.to_bits()));
    assert!(matches!(out.rows[0][1], Value::Float(a) if a.to_bits() == (0.6f64 / 3.0).to_bits()));
    assert_eq!(out.rows[0][2], Value::Int(3));
    // The same bag stored in another order sums to the same bits.
    let mut reversed = xs;
    reversed.reverse();
    let db = with_values(
        reversed.iter().map(|&x| Value::Float(x)).collect(),
        DataType::Float,
    );
    let again = query(
        &db,
        "select sum(distinct v), avg(distinct v), count(distinct v) from D",
    )
    .unwrap();
    assert_eq!(fingerprint(&out), fingerprint(&again));
}

/// `select count(*) from T t0, …, T t{n-1}`, each alias pinned to one row.
fn self_joins(n: usize) -> String {
    let from: Vec<String> = (0..n).map(|i| format!("T t{i}")).collect();
    let pins: Vec<String> = (0..n).map(|i| format!("t{i}.id = 1")).collect();
    format!(
        "select count(*) from {} where {}",
        from.join(", "),
        pins.join(" and ")
    )
}

/// The executor tracks bound relations in a `u64`, so a block of 65
/// relations is a plan error, never a panic; 64 still execute.
#[test]
fn more_than_64_relations_in_one_block_is_a_plan_error() {
    let db = db();
    let out = query(&db, &self_joins(64)).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
    let err = query(&db, &self_joins(65)).unwrap_err();
    assert!(matches!(err, EngineError::Plan(_)), "{err:?}");
    // Inside a subquery too.
    let nested = format!("select id from T where exists ({})", self_joins(65));
    let err = query(&db, &nested).unwrap_err();
    assert!(matches!(err, EngineError::Plan(_)), "{err:?}");
}
