//! A small SQL-ish surface for local queries.
//!
//! The paper writes its local queries as SQL
//! (`select a1, a5, a7 from R7 where a3 > 300 and a8 < 2000`); this module
//! parses exactly that dialect into the [`Query`] AST:
//!
//! ```text
//! query     := SELECT projection FROM table [join] [WHERE conjunction]
//!              [ORDER BY column]
//! projection:= '*' | column (',' column)*
//! join      := JOIN table ON table '.' column '=' table '.' column
//! conjunction := predicate (AND predicate)*
//! predicate := [table '.'] column op number
//!            | [table '.'] column BETWEEN number AND number
//! op        := '<' | '>' | '<=' | '>='
//! ```
//!
//! Keywords are case-insensitive; tables are `R1`…`R12`-style names;
//! columns are the schema's column names (`a1`…`a9`). The parser resolves
//! names against a [`LocalCatalog`] so errors mention what actually exists.

use crate::catalog::{LocalCatalog, TableDef, TableId};
use crate::query::{JoinQuery, Predicate, Query, UnaryQuery};

/// A parse or resolution error, with a human-oriented message.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL error: {}", self.message)
    }
}

impl std::error::Error for SqlError {}

fn err<T>(message: impl Into<String>) -> Result<T, SqlError> {
    Err(SqlError {
        message: message.into(),
    })
}

/// A lexical token. Identifiers borrow from the input, so tokenizing
/// allocates only the token vector.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'s> {
    Ident(&'s str),
    Number(u64),
    Comma,
    Dot,
    Star,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
}

fn tokenize(input: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '.' => {
                chars.next();
                tokens.push(Token::Dot);
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Eq);
            }
            '<' => {
                chars.next();
                if chars.next_if(|&(_, d)| d == '=').is_some() {
                    tokens.push(Token::Le);
                } else {
                    tokens.push(Token::Lt);
                }
            }
            '>' => {
                chars.next();
                if chars.next_if(|&(_, d)| d == '=').is_some() {
                    tokens.push(Token::Ge);
                } else {
                    tokens.push(Token::Gt);
                }
            }
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(&(_, d)) = chars.peek() {
                    if let Some(v) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(v as u64))
                            .ok_or_else(|| SqlError {
                                message: "numeric literal overflows u64".into(),
                            })?;
                        chars.next();
                    } else if d == '_' {
                        chars.next(); // Allow 50_000 style separators.
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while chars
                    .next_if(|&(_, d)| d.is_ascii_alphanumeric() || d == '_')
                    .is_some()
                {}
                let end = chars.peek().map_or(input.len(), |&(i, _)| i);
                tokens.push(Token::Ident(&input[start..end]));
            }
            other => return err(format!("unexpected character `{other}`")),
        }
    }
    Ok(tokens)
}

/// The table a name such as `R7` or `r7` spells: exactly what
/// [`TableId`]'s `Display` writes (no sign, no leading zeros), compared
/// case-insensitively.
fn spelled_table_id(name: &str) -> Option<TableId> {
    let digits = name.strip_prefix(['R', 'r'])?;
    let canonical = digits.bytes().all(|b| b.is_ascii_digit())
        && !(digits.len() > 1 && digits.starts_with('0'));
    if !canonical {
        return None;
    }
    digits.parse().ok().map(TableId)
}

struct Parser<'a, 's> {
    tokens: Vec<Token<'s>>,
    pos: usize,
    catalog: &'a LocalCatalog,
}

impl<'a, 's> Parser<'a, 's> {
    fn peek(&self) -> Option<Token<'s>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'s>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => err(format!("expected `{kw}`, found {other:?}")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<&'s str, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => err(format!("expected an identifier, found {other:?}")),
        }
    }

    fn number(&mut self) -> Result<u64, SqlError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => err(format!("expected a number, found {other:?}")),
        }
    }

    fn resolve_table(&self, name: &str) -> Result<&'a TableDef, SqlError> {
        spelled_table_id(name)
            .and_then(|id| self.catalog.table(id))
            .ok_or_else(|| SqlError {
                message: format!(
                    "unknown table `{name}` (have: {})",
                    self.catalog
                        .tables()
                        .iter()
                        .map(|t| t.id.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            })
    }

    fn resolve_column(table: &TableDef, name: &str) -> Result<usize, SqlError> {
        table
            .columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError {
                message: format!("table {} has no column `{name}`", table.id),
            })
    }
}

/// A parsed column reference: optional table qualifier plus column name.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ColumnRef<'s> {
    table: Option<TableId>,
    name: &'s str,
}

impl<'s> Parser<'_, 's> {
    /// `[table '.'] column`
    fn column_ref(&mut self) -> Result<ColumnRef<'s>, SqlError> {
        let first = self.ident()?;
        if matches!(self.peek(), Some(Token::Dot)) {
            self.next();
            let col = self.ident()?;
            let table = self.resolve_table(first)?.id;
            Ok(ColumnRef {
                table: Some(table),
                name: col,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                name: first,
            })
        }
    }

    /// One predicate; returns the column ref so the caller can route it to
    /// the proper operand.
    fn predicate(&mut self) -> Result<(ColumnRef<'s>, PredShape), SqlError> {
        let col = self.column_ref()?;
        if self.at_keyword("between") {
            self.next();
            let lo = self.number()?;
            self.expect_keyword("and")?;
            let hi = self.number()?;
            if hi < lo {
                return err(format!("BETWEEN bounds reversed: {lo} > {hi}"));
            }
            return Ok((col, PredShape::Between(lo, hi)));
        }
        match self.next() {
            Some(Token::Lt) => Ok((col, PredShape::Lt(self.number()?))),
            Some(Token::Gt) => Ok((col, PredShape::Gt(self.number()?))),
            Some(Token::Le) => Ok((col, PredShape::Le(self.number()?))),
            Some(Token::Ge) => Ok((col, PredShape::Ge(self.number()?))),
            other => err(format!("expected a comparison operator, found {other:?}")),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PredShape {
    Lt(u64),
    Gt(u64),
    Le(u64),
    Ge(u64),
    Between(u64, u64),
}

impl PredShape {
    fn into_predicate(self, column: usize) -> Predicate {
        match self {
            PredShape::Lt(v) => Predicate::lt(column, v),
            PredShape::Gt(v) => Predicate::gt(column, v),
            PredShape::Le(v) => Predicate {
                column,
                lo: None,
                hi: Some(v),
            },
            PredShape::Ge(v) => Predicate {
                column,
                lo: Some(v),
                hi: None,
            },
            PredShape::Between(lo, hi) => Predicate::between(column, lo, hi),
        }
    }
}

/// Parses one query against a local schema.
pub fn parse_query(catalog: &LocalCatalog, input: &str) -> Result<Query, SqlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        catalog,
    };
    p.expect_keyword("select")?;
    // Projection: '*' or a comma list of (possibly qualified) columns.
    let mut proj_refs: Vec<ColumnRef> = Vec::new();
    let star = matches!(p.peek(), Some(Token::Star));
    if star {
        p.next();
    } else {
        loop {
            proj_refs.push(p.column_ref()?);
            if matches!(p.peek(), Some(Token::Comma)) {
                p.next();
            } else {
                break;
            }
        }
    }
    p.expect_keyword("from")?;
    let left_name = p.ident()?;
    let left = p.resolve_table(left_name)?;
    // Optional JOIN clause.
    let join = if p.at_keyword("join") {
        p.next();
        let right_name = p.ident()?;
        let right = p.resolve_table(right_name)?;
        p.expect_keyword("on")?;
        let a = p.column_ref()?;
        match p.next() {
            Some(Token::Eq) => {}
            other => return err(format!("expected `=` in join condition, found {other:?}")),
        }
        let b = p.column_ref()?;
        Some((right, a, b))
    } else {
        None
    };
    // Optional WHERE clause.
    let mut predicates: Vec<(ColumnRef, PredShape)> = Vec::new();
    if p.at_keyword("where") {
        p.next();
        loop {
            predicates.push(p.predicate()?);
            if p.at_keyword("and") {
                p.next();
            } else {
                break;
            }
        }
    }
    // Optional ORDER BY clause (unary queries only).
    let mut order_ref: Option<ColumnRef> = None;
    if p.at_keyword("order") {
        p.next();
        p.expect_keyword("by")?;
        order_ref = Some(p.column_ref()?);
    }
    if p.peek().is_some() {
        return err(format!("trailing input from token {:?}", p.peek()));
    }

    match join {
        None => {
            let projection = if star {
                Vec::new()
            } else {
                proj_refs
                    .iter()
                    .map(|r| {
                        if let Some(t) = r.table {
                            if t != left.id {
                                return err(format!(
                                    "projection references {t}, not the FROM table {}",
                                    left.id
                                ));
                            }
                        }
                        Parser::resolve_column(left, r.name)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            let predicates = predicates
                .into_iter()
                .map(|(r, shape)| {
                    if let Some(t) = r.table {
                        if t != left.id {
                            return err(format!(
                                "predicate references {t}, not the FROM table {}",
                                left.id
                            ));
                        }
                    }
                    Ok(shape.into_predicate(Parser::resolve_column(left, r.name)?))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let order_by = order_ref
                .map(|r| {
                    if let Some(t) = r.table {
                        if t != left.id {
                            return err(format!(
                                "ORDER BY references {t}, not the FROM table {}",
                                left.id
                            ));
                        }
                    }
                    Parser::resolve_column(left, r.name)
                })
                .transpose()?;
            Ok(Query::Unary(UnaryQuery {
                table: left.id,
                projection,
                predicates,
                order_by,
            }))
        }
        Some((right, a, b)) => {
            if order_ref.is_some() {
                return err("ORDER BY is only supported on single-table queries");
            }
            // Join columns must be qualified to disambiguate.
            let side_of = |r: &ColumnRef| -> Result<(bool, usize), SqlError> {
                let Some(t) = r.table else {
                    return err(format!(
                        "join queries need qualified column references (got bare `{}`)",
                        r.name
                    ));
                };
                if t == left.id {
                    Ok((true, Parser::resolve_column(left, r.name)?))
                } else if t == right.id {
                    Ok((false, Parser::resolve_column(right, r.name)?))
                } else {
                    err(format!("{t} is not part of this join"))
                }
            };
            let (a_left, a_col) = side_of(&a)?;
            let (b_left, b_col) = side_of(&b)?;
            let (left_col, right_col) = match (a_left, b_left) {
                (true, false) => (a_col, b_col),
                (false, true) => (b_col, a_col),
                _ => return err("join condition must reference both tables"),
            };
            let mut left_predicates = Vec::new();
            let mut right_predicates = Vec::new();
            for (r, shape) in predicates {
                let (is_left, col) = side_of(&r)?;
                let pred = shape.into_predicate(col);
                if is_left {
                    left_predicates.push(pred);
                } else {
                    right_predicates.push(pred);
                }
            }
            let projection = if star {
                Vec::new()
            } else {
                proj_refs
                    .iter()
                    .map(|r| {
                        let (is_left, col) = side_of(r)?;
                        Ok((is_left, col))
                    })
                    .collect::<Result<Vec<_>, SqlError>>()?
            };
            Ok(Query::Join(JoinQuery {
                left: left.id,
                right: right.id,
                left_col,
                right_col,
                left_predicates,
                right_predicates,
                projection,
            }))
        }
    }
}

/// Renders a query back to the SQL dialect [`parse_query`] accepts.
///
/// Column names are resolved against the schema; unknown tables/columns
/// render as `?`, which will not re-parse — callers should only unparse
/// queries valid against the same catalog. `parse_query(to_sql(q)) == q`
/// holds for every valid query (tested by property).
pub fn to_sql(catalog: &LocalCatalog, query: &Query) -> String {
    let col_name = |table: TableId, col: usize| -> String {
        catalog
            .table(table)
            .and_then(|t| t.columns.get(col))
            .map_or_else(|| "?".to_string(), |c| c.name.clone())
    };
    let render_pred = |table: TableId, qualify: bool, p: &Predicate| -> String {
        let mut name = col_name(table, p.column);
        if qualify {
            name = format!("{table}.{name}");
        }
        match (p.lo, p.hi) {
            (Some(lo), Some(hi)) => format!("{name} between {lo} and {hi}"),
            (Some(lo), None) => format!("{name} >= {lo}"),
            (None, Some(hi)) => format!("{name} <= {hi}"),
            (None, None) => format!("{name} >= 0"),
        }
    };
    match query {
        Query::Unary(u) => {
            let projection = if u.projection.is_empty() {
                "*".to_string()
            } else {
                u.projection
                    .iter()
                    .map(|&c| col_name(u.table, c))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let mut sql = format!("select {projection} from {}", u.table);
            if !u.predicates.is_empty() {
                let preds: Vec<String> = u
                    .predicates
                    .iter()
                    .map(|p| render_pred(u.table, false, p))
                    .collect();
                sql.push_str(&format!(" where {}", preds.join(" and ")));
            }
            if let Some(col) = u.order_by {
                sql.push_str(&format!(" order by {}", col_name(u.table, col)));
            }
            sql
        }
        Query::Join(j) => {
            let projection = if j.projection.is_empty() {
                "*".to_string()
            } else {
                j.projection
                    .iter()
                    .map(|&(from_left, c)| {
                        let t = if from_left { j.left } else { j.right };
                        format!("{t}.{}", col_name(t, c))
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let mut sql = format!(
                "select {projection} from {} join {} on {}.{} = {}.{}",
                j.left,
                j.right,
                j.left,
                col_name(j.left, j.left_col),
                j.right,
                col_name(j.right, j.right_col)
            );
            let mut preds: Vec<String> = j
                .left_predicates
                .iter()
                .map(|p| render_pred(j.left, true, p))
                .collect();
            preds.extend(
                j.right_predicates
                    .iter()
                    .map(|p| render_pred(j.right, true, p)),
            );
            if !preds.is_empty() {
                sql.push_str(&format!(" where {}", preds.join(" and ")));
            }
            sql
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::standard_database;
    use crate::selectivity::unary_sizes;

    fn db() -> LocalCatalog {
        standard_database(42)
    }

    #[test]
    fn parses_the_papers_query() {
        let db = db();
        let q = parse_query(
            &db,
            "select a1, a5, a7 from R7 where a3 > 300 and a8 < 2000",
        )
        .unwrap();
        let Query::Unary(u) = q else {
            panic!("expected a unary query");
        };
        assert_eq!(u.table, TableId(7));
        assert_eq!(u.projection, vec![0, 4, 6]);
        assert_eq!(u.predicates.len(), 2);
        assert_eq!(u.predicates[0], Predicate::gt(2, 300));
        assert_eq!(u.predicates[1], Predicate::lt(7, 2000));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let db = db();
        assert_eq!(
            parse_query(&db, "SELECT a1 FROM r3 WHERE a2 < 10").unwrap(),
            parse_query(&db, "select A1 from R3 where A2 < 10").unwrap()
        );
    }

    #[test]
    fn star_projection_means_all_columns() {
        let db = db();
        let Query::Unary(u) = parse_query(&db, "select * from R2").unwrap() else {
            panic!("expected unary");
        };
        assert!(u.projection.is_empty());
        assert!(u.predicates.is_empty());
    }

    #[test]
    fn between_and_inclusive_ops() {
        let db = db();
        let Query::Unary(u) = parse_query(
            &db,
            "select a1 from R4 where a2 between 10 and 20 and a4 >= 5 and a5 <= 7",
        )
        .unwrap() else {
            panic!("expected unary");
        };
        assert_eq!(u.predicates[0], Predicate::between(1, 10, 20));
        assert_eq!(
            u.predicates[1],
            Predicate {
                column: 3,
                lo: Some(5),
                hi: None
            }
        );
        assert_eq!(
            u.predicates[2],
            Predicate {
                column: 4,
                lo: None,
                hi: Some(7)
            }
        );
    }

    #[test]
    fn numeric_separators_allowed() {
        let db = db();
        let Query::Unary(u) = parse_query(&db, "select a1 from R7 where a3 < 50_000").unwrap()
        else {
            panic!("expected unary");
        };
        assert_eq!(u.predicates[0], Predicate::lt(2, 50_000));
    }

    #[test]
    fn parses_a_join_with_routing() {
        let db = db();
        let q = parse_query(
            &db,
            "select R2.a1, R3.a2 from R2 join R3 on R2.a5 = R3.a5 \
             where R2.a2 < 500 and R3.a6 > 100",
        )
        .unwrap();
        let Query::Join(j) = q else {
            panic!("expected a join");
        };
        assert_eq!(j.left, TableId(2));
        assert_eq!(j.right, TableId(3));
        assert_eq!(j.left_col, 4);
        assert_eq!(j.right_col, 4);
        assert_eq!(j.left_predicates.len(), 1);
        assert_eq!(j.right_predicates.len(), 1);
        assert_eq!(j.projection, vec![(true, 0), (false, 1)]);
    }

    #[test]
    fn join_condition_order_is_normalized() {
        let db = db();
        let a = parse_query(&db, "select * from R2 join R3 on R2.a5 = R3.a6").unwrap();
        let b = parse_query(&db, "select * from R2 join R3 on R3.a6 = R2.a5").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parsed_query_executes() {
        let db = db();
        let q = parse_query(&db, "select a1 from R5 where a2 < 100").unwrap();
        let Query::Unary(u) = &q else { panic!() };
        let t = db.table(u.table).unwrap();
        let s = unary_sizes(t, u);
        assert!(s.result <= s.operand);
    }

    #[test]
    fn good_error_messages() {
        let db = db();
        let tables = "R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12";
        let cases = [
            (
                "select a1 from R99",
                format!("unknown table `R99` (have: {tables})"),
            ),
            (
                "select a1 from r07",
                format!("unknown table `r07` (have: {tables})"),
            ),
            ("select zz from R2", "table R2 has no column `zz`".into()),
            (
                "select a1 from R2 where a2",
                "expected a comparison operator, found None".into(),
            ),
            (
                "select a1 from R2 where a2 < x",
                r#"expected a number, found Some(Ident("x"))"#.into(),
            ),
            (
                "select a1 from R2 where a2 between 20 and 10",
                "BETWEEN bounds reversed: 20 > 10".into(),
            ),
            (
                "select a1 R2",
                r#"expected `from`, found Some(Ident("R2"))"#.into(),
            ),
            (
                "select , from R2",
                "expected an identifier, found Some(Comma)".into(),
            ),
            (
                "select a1 from R2 extra",
                r#"trailing input from token Some(Ident("extra"))"#.into(),
            ),
            (
                "select * from R2 join R3 on R2.a5 < R3.a5",
                "expected `=` in join condition, found Some(Lt)".into(),
            ),
            (
                "select * from R2 join R3 on a5 = R3.a5",
                "join queries need qualified column references (got bare `a5`)".into(),
            ),
            (
                "select * from R2 join R3 on R2.a5 = R4.a5",
                "R4 is not part of this join".into(),
            ),
            (
                "select * from R2 join R3 on R2.a5 = R2.a6",
                "join condition must reference both tables".into(),
            ),
            (
                "select R4.a1 from R2 where a1 < 5",
                "projection references R4, not the FROM table R2".into(),
            ),
            (
                "select a1 from R2 where R4.a1 < 5",
                "predicate references R4, not the FROM table R2".into(),
            ),
            (
                "select * from R2 join R3 on R2.a5 = R3.a5 order by a1",
                "ORDER BY is only supported on single-table queries".into(),
            ),
            (
                "select a1 from R4 order by R2.a1",
                "ORDER BY references R2, not the FROM table R4".into(),
            ),
        ];
        for (sql, message) in cases {
            let e = parse_query(&db, sql).unwrap_err();
            assert_eq!(e.message, message, "`{sql}`");
            assert_eq!(e.to_string(), format!("SQL error: {message}"));
        }
    }

    #[test]
    fn rejects_garbage_characters() {
        let db = db();
        for (sql, ch) in [
            ("select a1 from R2 where a2 < $5", '$'),
            ("select a1 from R2 where a2 < 5é", 'é'),
        ] {
            let e = parse_query(&db, sql).unwrap_err();
            assert_eq!(e.message, format!("unexpected character `{ch}`"));
        }
    }

    #[test]
    fn overflowing_number_is_an_error() {
        let db = db();
        let e = parse_query(
            &db,
            "select a1 from R2 where a2 < 99999999999999999999999999",
        )
        .unwrap_err();
        assert_eq!(e.message, "numeric literal overflows u64");
    }

    #[test]
    fn table_names_match_case_insensitively_and_only_canonically() {
        let db = db();
        let upper = parse_query(&db, "select R2.a1 from R2").unwrap();
        assert_eq!(parse_query(&db, "select r2.a1 from r2").unwrap(), upper);
        for bad in ["R", "R02", "R_2", "R2x", "S2", "R4294967298"] {
            let e = parse_query(&db, &format!("select a1 from {bad}")).unwrap_err();
            assert!(e.message.starts_with("unknown table"), "{bad}: {e}");
        }
    }

    #[test]
    fn order_by_parses_and_roundtrips() {
        let db = db();
        let q = parse_query(&db, "select a1 from R4 where a2 < 100 order by a6").unwrap();
        let Query::Unary(u) = &q else { panic!() };
        assert_eq!(u.order_by, Some(5));
        let rendered = to_sql(&db, &q);
        assert_eq!(parse_query(&db, &rendered).unwrap(), q);
        // ORDER BY on a join is rejected with a clear message.
        let e =
            parse_query(&db, "select * from R2 join R3 on R2.a5 = R3.a5 order by a1").unwrap_err();
        assert!(e.message.contains("single-table"), "{}", e.message);
        // ORDER BY on a foreign table is rejected.
        let e = parse_query(&db, "select a1 from R4 order by R2.a1").unwrap_err();
        assert!(e.message.contains("not the FROM table"), "{}", e.message);
    }

    #[test]
    fn to_sql_roundtrips_hand_queries() {
        let db = db();
        for sql in [
            "select a1, a5, a7 from R7 where a3 > 300 and a8 < 2000",
            "select * from R2",
            "select a1 from R4 where a2 between 10 and 20",
            "select R2.a1, R3.a2 from R2 join R3 on R2.a5 = R3.a5 \
             where R2.a2 < 500 and R3.a6 > 100",
        ] {
            let q = parse_query(&db, sql).unwrap();
            let rendered = to_sql(&db, &q);
            let q2 = parse_query(&db, &rendered).unwrap();
            assert_eq!(q, q2, "round-trip changed `{sql}` -> `{rendered}`");
        }
    }
}
