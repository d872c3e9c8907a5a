//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect covers the query class QIRANA prices: select-project-join
//! blocks (implicit comma joins and explicit `INNER JOIN ... ON`, desugared
//! by the parser), aggregation with `GROUP BY`/`HAVING`, `DISTINCT`,
//! `ORDER BY`/`LIMIT`, derived tables, and `IN`/`EXISTS`/scalar subqueries
//! (including correlated ones, needed for TPC-H Q2/Q4/Q11/Q17). `UPDATE` is
//! supported for applying support-set updates expressed as SQL.

use crate::value::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    Update(UpdateStmt),
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<u64>,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// One entry of the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A base table, optionally aliased.
    Table { name: String, alias: Option<String> },
    /// A derived table `(SELECT ...) AS alias`.
    Derived {
        query: Box<SelectStmt>,
        alias: String,
    },
}

impl TableRef {
    /// The name this relation is referred to by in the query scope.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Derived { alias, .. } => alias,
        }
    }
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub asc: bool,
}

/// `UPDATE table SET col = expr, ... [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

/// Binary operators, lowest to highest precedence handled by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Parses a function-name keyword into an aggregate, if it is one.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// Interval literal, e.g. `INTERVAL '6' MONTH`; participates in date
    /// arithmetic only.
    Interval {
        months: i64,
        days: i64,
    },
    /// Possibly-qualified column reference.
    Column {
        table: Option<String>,
        column: String,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// `expr [NOT] LIKE pattern` (pattern is a literal string with `%`/`_`).
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    /// A scalar subquery in expression position.
    ScalarSubquery(Box<SelectStmt>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// Aggregate call. `arg == None` means `COUNT(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

impl Expr {
    /// Column reference helper.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            column: name.to_string(),
        }
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Builds `self AND other`, treating either side being absent elsewhere.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinaryOp::And,
            right: Box::new(other),
        }
    }

    /// True iff the expression tree contains an aggregate call (without
    /// descending into subqueries, which have their own aggregate scope).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Interval { .. } | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Like { expr, .. } => expr.contains_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.as_deref().is_some_and(Expr::contains_aggregate)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_expr.as_deref().is_some_and(Expr::contains_aggregate)
            }
        }
    }

    /// True iff the expression contains any subquery form.
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Literal(_) | Expr::Interval { .. } | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_subquery(),
            Expr::Binary { left, right, .. } => {
                left.contains_subquery() || right.contains_subquery()
            }
            Expr::Like { expr, .. } => expr.contains_subquery(),
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_subquery() || low.contains_subquery() || high.contains_subquery(),
            Expr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(Expr::contains_subquery)
            }
            Expr::IsNull { expr, .. } => expr.contains_subquery(),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand.as_deref().is_some_and(Expr::contains_subquery)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_subquery() || t.contains_subquery())
                    || else_expr.as_deref().is_some_and(Expr::contains_subquery)
            }
            Expr::Agg { arg, .. } => arg.as_deref().is_some_and(Expr::contains_subquery),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_from_name() {
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("aVg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("concat"), None);
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let e = Expr::lit(1i64).and(Expr::Agg {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        });
        assert!(e.contains_aggregate());
        assert!(!Expr::col("a").contains_aggregate());
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef::Table {
            name: "Country".into(),
            alias: Some("C".into()),
        };
        assert_eq!(t.binding_name(), "C");
        let t = TableRef::Table {
            name: "Country".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), "Country");
    }

    #[test]
    fn subquery_detection() {
        let sub = SelectStmt {
            distinct: false,
            projection: vec![SelectItem::Wildcard],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        let e = Expr::Exists {
            subquery: Box::new(sub),
            negated: false,
        };
        assert!(e.contains_subquery());
        assert!(!Expr::lit(1i64).contains_subquery());
    }
}
