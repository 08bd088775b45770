//! Sample-query generation and sample-size rules (paper §4.1).
//!
//! Sample queries are drawn per class so that every query in the sample
//! would be *classified* into that class (same observable criteria as
//! [`classes::classify`](crate::classes::classify)); sizes follow the
//! paper's Proposition 4.1 — "sample at least 10 observations for every
//! parameter to be estimated" — and its practical eq. (4), which budgets
//! for the basic variables, about half the secondary variables, the
//! intercept, and the maximum number of contention states.

use crate::classes::QueryClass;
use crate::variables::VariableFamily;
use mdbs_sim::catalog::{IndexKind, LocalCatalog, TableDef, TableId};
use mdbs_sim::query::{JoinQuery, Predicate, Query, UnaryQuery};
use mdbs_stats::rng::Rng;

/// Proposition 4.1: the general qualitative model with `p` quantitative
/// variables and `m` states has `(p + 1)·m` coefficients plus the error
/// variance; the 10-observations-per-parameter rule then demands at least
/// `10·(p + 1)·m + 1` observations.
pub fn minimum_sample_size(p: usize, m: usize) -> usize {
    10 * (p + 1) * m + 1
}

/// Eq. (4): a practical sample size budgeted *before* selection has run —
/// expect most basic variables and about half the secondary ones to be
/// selected, for up to `m_max` contention states.
pub fn planned_sample_size(family: VariableFamily, m_max: usize) -> usize {
    let b = family.basic_indexes().len();
    let s = family.secondary_indexes().len();
    let p_expected = b + s.div_ceil(2);
    minimum_sample_size(p_expected, m_max.max(1))
}

/// A deterministic per-class query generator.
#[derive(Debug, Clone)]
pub struct SampleGenerator {
    rng: Rng,
    /// Largest operand cardinality allowed for join samples (joins over the
    /// quarter-million-tuple tables would dominate wall-clock for little
    /// statistical benefit; the paper's join workloads are similar).
    pub max_join_card: u64,
    /// The query [`Self::next_query`] rebuilds in place.
    query: Query,
}

/// A query with no table, columns or predicates, for a generator to fill.
fn blank_query() -> Query {
    Query::Unary(UnaryQuery {
        table: TableId(0),
        projection: Vec::new(),
        predicates: Vec::new(),
        order_by: None,
    })
}

impl SampleGenerator {
    /// A generator with its own seed (distinct seeds → distinct workloads).
    pub fn new(seed: u64) -> Self {
        SampleGenerator {
            rng: Rng::seed_from_u64(seed),
            max_join_card: 60_000,
            query: blank_query(),
        }
    }

    /// Generates one query guaranteed to belong to `class`.
    pub fn generate(&mut self, class: QueryClass, catalog: &LocalCatalog) -> Query {
        let mut query = blank_query();
        self.fill(class, catalog, &mut query);
        query
    }

    /// The query [`Self::generate`] would return, built in a buffer the
    /// generator keeps: a caller that is done with each query before asking
    /// for the next allocates nothing for it once the buffer has grown.
    pub fn next_query(&mut self, class: QueryClass, catalog: &LocalCatalog) -> &Query {
        let mut query = std::mem::replace(&mut self.query, blank_query());
        self.fill(class, catalog, &mut query);
        self.query = query;
        &self.query
    }

    /// Overwrites `query` with the next query of `class`, reusing its
    /// vectors when it already has the class's shape.
    fn fill(&mut self, class: QueryClass, catalog: &LocalCatalog, query: &mut Query) {
        match class {
            QueryClass::UnaryNoIndex => self.unary_no_index(catalog, unary(query)),
            QueryClass::UnaryNonClusteredIndex => self.unary_nonclustered(catalog, unary(query)),
            QueryClass::UnaryClusteredIndex => self.unary_clustered(catalog, unary(query)),
            QueryClass::JoinNoIndex => self.join(catalog, false, join(query)),
            QueryClass::JoinIndexed => self.join(catalog, true, join(query)),
        }
    }

    /// Generates `n` queries of a class.
    pub fn generate_many(
        &mut self,
        class: QueryClass,
        catalog: &LocalCatalog,
        n: usize,
    ) -> Vec<Query> {
        (0..n).map(|_| self.generate(class, catalog)).collect()
    }

    fn pick_table<'a>(
        &mut self,
        catalog: &'a LocalCatalog,
        filter: impl Fn(&TableDef) -> bool,
    ) -> &'a TableDef {
        // Count the matches, then walk to the drawn one: the same draw as
        // indexing a collected list, without building it.
        let matching = || catalog.tables().iter().filter(|t| filter(t));
        let count = matching().count();
        assert!(count > 0, "no table matches the class filter");
        let nth = self.rng.gen_range(0..count);
        matching().nth(nth).expect("nth < count")
    }

    /// Columns of `t` without any index, in column order.
    fn unindexed_columns(t: &TableDef) -> impl Iterator<Item = usize> + '_ {
        t.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.index == IndexKind::None)
            .map(|(i, _)| i)
    }

    /// A range predicate on `col` with roughly the given selectivity,
    /// randomly positioned within the domain.
    fn range_predicate(&mut self, t: &TableDef, col: usize, selectivity: f64) -> Predicate {
        let domain = t.columns[col].domain_max;
        let width = ((domain as f64 + 1.0) * selectivity).round().max(1.0) as u64;
        let max_lo = domain.saturating_sub(width.saturating_sub(1));
        let lo = if max_lo == 0 {
            0
        } else {
            self.rng.gen_range(0..=max_lo)
        };
        Predicate::between(col, lo, lo + width - 1)
    }

    /// Replaces `cols` with a random non-empty set of `t`'s columns, in
    /// column order.
    fn random_projection(&mut self, t: &TableDef, cols: &mut Vec<usize>) {
        let k = self.rng.gen_range(1..=t.columns.len());
        cols.clear();
        cols.extend(0..t.columns.len());
        // Partial Fisher–Yates: take the first k of a shuffle.
        for i in 0..k {
            let j = self.rng.gen_range(i..cols.len());
            cols.swap(i, j);
        }
        cols.truncate(k);
        cols.sort_unstable();
    }

    /// Appends `count` extra (non-index-usable) predicates on unindexed
    /// columns to `out`.
    fn extra_predicates(&mut self, t: &TableDef, count: usize, out: &mut Vec<Predicate>) {
        for col in Self::unindexed_columns(t).take(count) {
            let sel = self.rng.gen_range(0.15..0.9);
            out.push(self.range_predicate(t, col, sel));
        }
    }

    /// About a third of unary samples order their result — the SORT
    /// candidate variable needs exercise to be selectable.
    fn random_order_by(&mut self, t: &TableDef) -> Option<usize> {
        if self.rng.gen_bool(1.0 / 3.0) {
            Some(self.rng.gen_range(0..t.columns.len()))
        } else {
            None
        }
    }

    // Each builder draws in one fixed order — table, predicates,
    // projection, ordering — which pins every generated query.

    fn unary_no_index(&mut self, catalog: &LocalCatalog, u: &mut UnaryQuery) {
        let t = self.pick_table(catalog, |_| true);
        let n_preds = self.rng.gen_range(1..=3usize);
        u.table = t.id;
        u.predicates.clear();
        self.extra_predicates(t, n_preds, &mut u.predicates);
        self.random_projection(t, &mut u.projection);
        u.order_by = self.random_order_by(t);
    }

    fn unary_nonclustered(&mut self, catalog: &LocalCatalog, u: &mut UnaryQuery) {
        // a3 (column index 2) carries a non-clustered index on every table.
        let t = self.pick_table(catalog, |t| t.columns[2].index == IndexKind::NonClustered);
        let sel = self.rng.gen_range(0.004..0.09);
        u.table = t.id;
        u.predicates.clear();
        u.predicates.push(self.range_predicate(t, 2, sel));
        let extra = self.rng.gen_range(0..=2usize);
        self.extra_predicates(t, extra, &mut u.predicates);
        self.random_projection(t, &mut u.projection);
        u.order_by = self.random_order_by(t);
    }

    fn unary_clustered(&mut self, catalog: &LocalCatalog, u: &mut UnaryQuery) {
        let t = self.pick_table(catalog, |t| t.clustered_column().is_some());
        let col = t.clustered_column().expect("filtered on clustered index");
        let sel = self.rng.gen_range(0.02..0.6);
        u.table = t.id;
        u.predicates.clear();
        u.predicates.push(self.range_predicate(t, col, sel));
        let extra = self.rng.gen_range(0..=2usize);
        self.extra_predicates(t, extra, &mut u.predicates);
        self.random_projection(t, &mut u.projection);
        u.order_by = self.random_order_by(t);
    }

    fn join(&mut self, catalog: &LocalCatalog, indexed: bool, j: &mut JoinQuery) {
        let max_card = self.max_join_card;
        let left = self.pick_table(catalog, |t| t.cardinality <= max_card);
        let right_id = loop {
            let c = self.pick_table(catalog, |t| t.cardinality <= max_card);
            if c.id != left.id {
                break c.id;
            }
        };
        let right = catalog.table(right_id).expect("just picked");
        // Columns 4..6 (a5, a6, a7) are unindexed everywhere; column 2
        // (a3) is indexed. Varying the join column varies the join-column
        // domains and therefore the result-size coverage of the sample —
        // important so the model is not asked to extrapolate later.
        let unindexed_join_col = self.rng.gen_range(4..=6usize);
        let (left_col, right_col) = if indexed {
            (unindexed_join_col, 2)
        } else {
            (unindexed_join_col, unindexed_join_col)
        };
        let lp = self.rng.gen_range(0..=2usize);
        let rp = self.rng.gen_range(0..=2usize);
        j.left = left.id;
        j.right = right.id;
        j.left_col = left_col;
        j.right_col = right_col;
        j.left_predicates.clear();
        self.filtered_join_preds(left, left_col, lp, &mut j.left_predicates);
        j.right_predicates.clear();
        self.filtered_join_preds(right, right_col, rp, &mut j.right_predicates);
        j.projection.clear();
        j.projection
            .extend_from_slice(&[(true, 0), (true, 4), (false, 1)]);
    }

    /// Appends `count` predicates on unindexed columns other than
    /// `join_col` to `out`.
    fn filtered_join_preds(
        &mut self,
        t: &TableDef,
        join_col: usize,
        count: usize,
        out: &mut Vec<Predicate>,
    ) {
        let cols = Self::unindexed_columns(t).filter(|&c| c != join_col); // Keep the join column predicate-free.
        for col in cols.take(count) {
            let sel = self.rng.gen_range(0.1..0.7);
            out.push(self.range_predicate(t, col, sel));
        }
    }
}

/// `query` as a unary query, made one (empty) first if it is a join.
fn unary(query: &mut Query) -> &mut UnaryQuery {
    if let Query::Join(_) = query {
        *query = blank_query();
    }
    match query {
        Query::Unary(u) => u,
        Query::Join(_) => unreachable!("replaced by a unary query"),
    }
}

/// `query` as a join query, made one (empty) first if it is unary.
fn join(query: &mut Query) -> &mut JoinQuery {
    if let Query::Unary(_) = query {
        *query = Query::Join(JoinQuery {
            left: TableId(0),
            right: TableId(0),
            left_col: 0,
            right_col: 0,
            left_predicates: Vec::new(),
            right_predicates: Vec::new(),
            projection: Vec::new(),
        });
    }
    match query {
        Query::Join(j) => j,
        Query::Unary(_) => unreachable!("replaced by a join query"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::classify;
    use mdbs_sim::datagen::standard_database;

    #[test]
    fn sizes_follow_the_rule_of_ten() {
        assert_eq!(minimum_sample_size(3, 1), 41);
        assert_eq!(minimum_sample_size(3, 4), 161);
        // Eq. (4) for the unary family, m_max = 6: p_exp = 3 basic +
        // ceil(5/2) secondary (incl. the SORT extension) = 6.
        assert_eq!(planned_sample_size(VariableFamily::Unary, 6), 421);
        // Join family: p_exp = 6 + 3 = 9.
        assert_eq!(planned_sample_size(VariableFamily::Join, 6), 601);
    }

    /// The reused buffer yields the queries `generate` yields, through
    /// every switch between unary and join shapes.
    #[test]
    fn next_query_equals_generate() {
        let db = standard_database(42);
        let classes = QueryClass::all();
        let mut fresh = SampleGenerator::new(5);
        let mut reused = SampleGenerator::new(5);
        for i in 0..500 {
            let class = classes[(i * 7 / 3) % classes.len()];
            let want = fresh.generate(class, &db);
            assert_eq!(
                reused.next_query(class, &db),
                &want,
                "query {i} ({class:?})"
            );
        }
    }

    #[test]
    fn generated_queries_classify_into_their_class() {
        let db = standard_database(42);
        let mut g = SampleGenerator::new(7);
        for class in QueryClass::all() {
            for _ in 0..50 {
                let q = g.generate(class, &db);
                assert_eq!(
                    classify(&db, &q),
                    Some(class),
                    "query {q:?} misclassified for {class:?}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let db = standard_database(42);
        let a = SampleGenerator::new(3).generate_many(QueryClass::UnaryNoIndex, &db, 5);
        let b = SampleGenerator::new(3).generate_many(QueryClass::UnaryNoIndex, &db, 5);
        assert_eq!(a, b);
        let c = SampleGenerator::new(4).generate_many(QueryClass::UnaryNoIndex, &db, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn workload_varies_tables_and_predicates() {
        let db = standard_database(42);
        let mut g = SampleGenerator::new(5);
        let queries = g.generate_many(QueryClass::UnaryNoIndex, &db, 60);
        let tables: std::collections::BTreeSet<_> = queries.iter().map(|q| q.tables()[0]).collect();
        assert!(tables.len() > 5, "only {} distinct tables", tables.len());
        let pred_counts: std::collections::BTreeSet<_> = queries
            .iter()
            .map(|q| match q {
                Query::Unary(u) => u.predicates.len(),
                _ => 0,
            })
            .collect();
        assert!(pred_counts.len() >= 2, "predicate counts do not vary");
    }

    #[test]
    fn join_samples_respect_cardinality_cap() {
        let db = standard_database(42);
        let mut g = SampleGenerator::new(6);
        for q in g.generate_many(QueryClass::JoinNoIndex, &db, 40) {
            for tid in q.tables() {
                assert!(db.table(tid).unwrap().cardinality <= g.max_join_card);
            }
        }
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins every draw of the generator: the `Debug` text of 2,000 queries
    /// per class (a fresh seed-11 generator per class) hashes to a fixed
    /// digest on two databases. A change that draws the RNG in another
    /// order, or maps a draw to another table, column or bound, moves a
    /// digest; the self-consistency tests above cannot see that.
    #[test]
    fn generated_queries_are_pinned() {
        let pins: [(u64, [u64; 5]); 2] = [
            (
                42,
                [
                    0x35df_3633_bf47_31fc,
                    0xd11d_67ce_d3a1_fc58,
                    0x44b7_7d6e_b76e_477e,
                    0xd674_d268_25f4_6688,
                    0xa40c_3066_84db_2037,
                ],
            ),
            (
                43,
                [
                    0x4fe1_8ca8_478e_a2a9,
                    0xa7b2_2b83_3266_ef4a,
                    0xb7ec_c5c0_bc09_2ff8,
                    0x5381_0716_b348_edae,
                    0xf24f_e7e8_feb8_d9dd,
                ],
            ),
        ];
        for (db_seed, digests) in pins {
            let db = standard_database(db_seed);
            for (class, want) in QueryClass::all().into_iter().zip(digests) {
                let mut g = SampleGenerator::new(11);
                let mut text = String::new();
                for _ in 0..2_000 {
                    text.push_str(&format!("{:?}\n", g.generate(class, &db)));
                }
                let got = fnv1a(text.as_bytes());
                assert_eq!(got, want, "db {db_seed}, {class:?}: {got:#018x}");
            }
        }
    }

    #[test]
    fn range_predicates_hit_target_selectivity() {
        let db = standard_database(42);
        let mut g = SampleGenerator::new(9);
        let t = &db.tables()[4];
        for _ in 0..100 {
            let p = g.range_predicate(t, 5, 0.25);
            let sel = mdbs_sim::selectivity::predicate_selectivity(t, &p);
            assert!((sel - 0.25).abs() < 0.02, "selectivity {sel}");
        }
    }
}
