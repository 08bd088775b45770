//! Seeded fuzz sweep of the SQL surface (`mdbs_sim::sql::parse_query`).
//!
//! Every case is a fixed-seed, in-tree mutation of `to_sql` output for
//! sample queries of every query class: cuts at every byte prefix, byte
//! flips passed through `from_utf8_lossy`, and token-level swaps,
//! replacements, duplications and deletions drawn from a pool of keywords,
//! schema names, punctuation and hostile numbers (overflowing, negative,
//! fractional, exponent). The contract: no case panics, and each one ends
//! in either a typed `SqlError` with a message or a query that
//! `classify` assigns to a query class.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdbs_core::classes::{classify, QueryClass};
use mdbs_core::sampling::SampleGenerator;
use mdbs_sim::catalog::LocalCatalog;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::sql::{parse_query, to_sql};
use mdbs_stats::rng::Rng;

/// Replacement tokens: the dialect's keywords in two cases, names that
/// resolve and names that do not, every operator and punctuation mark,
/// and numbers the `u64` lexer must reject or bound.
const POOL: &[&str] = &[
    "select",
    "SELECT",
    "from",
    "where",
    "and",
    "AND",
    "between",
    "join",
    "on",
    "order",
    "by",
    "*",
    ",",
    ".",
    "=",
    "<",
    ">",
    "<=",
    ">=",
    "<>",
    "(",
    ")",
    ";",
    "a1",
    "a9",
    "a10",
    "a0",
    "R1",
    "R12",
    "R13",
    "R0",
    "R4294967298",
    "R2.a1",
    "R2.",
    ".a1",
    "0",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1.5",
    "1e308",
    "NaN",
    "'x'",
    "\u{fffd}",
    "",
];

/// One outcome of a case: a typed error, or a query and its class.
fn check(db: &LocalCatalog, at: &str, text: &str, tally: &mut [usize; 2]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_query(db, text)))
        .unwrap_or_else(|_| panic!("{at}: parse_query panicked on {text:?}"));
    match outcome {
        Ok(query) => {
            let class = catch_unwind(AssertUnwindSafe(|| classify(db, &query)))
                .unwrap_or_else(|_| panic!("{at}: classify panicked on {text:?}"));
            assert!(
                class.is_some(),
                "{at}: {text:?} parsed to {query:?}, which has no query class"
            );
            tally[0] += 1;
        }
        Err(e) => {
            assert!(!e.message.is_empty(), "{at}: empty SqlError for {text:?}");
            tally[1] += 1;
        }
    }
}

#[test]
fn seeded_sql_mutations_never_panic_and_end_typed() {
    let db = standard_database(42);
    let mut generator = SampleGenerator::new(7);
    let mut rng = Rng::seed_from_u64(0x5EED_5A1F);
    let bases: Vec<String> = QueryClass::all()
        .into_iter()
        .flat_map(|class| {
            (0..2)
                .map(|_| to_sql(&db, &generator.generate(class, &db)))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut tally = [0usize; 2];
    for (b, base) in bases.iter().enumerate() {
        // The unmutated rendering parses back to a classifiable query.
        let query = parse_query(&db, base).unwrap_or_else(|e| panic!("base {b} `{base}`: {e}"));
        assert!(classify(&db, &query).is_some(), "base {b} `{base}`");

        // Every prefix cut.
        for cut in 0..base.len() {
            let text = String::from_utf8_lossy(&base.as_bytes()[..cut]);
            check(&db, &format!("base {b} cut {cut}"), &text, &mut tally);
        }

        // Byte flips: one to three bytes set to arbitrary values.
        for flip in 0..500 {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1usize..=3) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0u64..256) as u8;
            }
            let text = String::from_utf8_lossy(&bytes);
            check(&db, &format!("base {b} flip {flip}"), &text, &mut tally);
        }

        // Token edits on the whitespace-split rendering.
        let tokens: Vec<&str> = base.split_whitespace().collect();
        for edit in 0..600 {
            let mut t = tokens.clone();
            for _ in 0..rng.gen_range(1usize..=2) {
                let i = rng.gen_range(0..t.len());
                match rng.gen_range(0usize..4) {
                    0 => t[i] = POOL[rng.gen_range(0..POOL.len())],
                    1 => {
                        let j = rng.gen_range(0..t.len());
                        t.swap(i, j);
                    }
                    2 => t.insert(i, t[i]),
                    _ if t.len() > 1 => {
                        t.remove(i);
                    }
                    _ => {}
                }
            }
            let joiner = if rng.gen_bool(0.1) { "" } else { " " };
            let text = t.join(joiner);
            check(&db, &format!("base {b} edit {edit}"), &text, &mut tally);
        }
    }
    let cases = tally[0] + tally[1];
    assert!(cases >= 10_000, "{cases} cases");
    // The sweep reaches both ends of the contract.
    assert!(tally[0] >= 300, "{} mutations parsed", tally[0]);
    assert!(tally[1] >= 5_000, "{} mutations rejected", tally[1]);
    println!(
        "{cases} cases: {} parsed and classified, {} typed errors",
        tally[0], tally[1]
    );
}
