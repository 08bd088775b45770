//! Seeded input generators for the benchmark workloads.
//!
//! Every trace is built from the library's own public query generator
//! (`SampleGenerator::generate`) rendered with `sim::sql::to_sql`, so the
//! program under test sees nothing but a trace file and argv. The same
//! seed always yields the same bytes.

use mdbs_cli::site::SiteName;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::QueryClass;
use mdbs_sim::sql::to_sql;
use mdbs_stats::rng::{split_stream, Rng};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Both built-in sites.
pub const SITES: [SiteName; 2] = [SiteName::Oracle, SiteName::Db2];

/// Shape of a generated serve trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Events in the trace, `degrade` lines included.
    pub events: usize,
    /// Virtual arrival rate in events per virtual second.
    pub rate_per_s: f64,
    /// Share of non-degrade events that are `observe` rather than `request`.
    pub observe_share: f64,
    /// `Some(n)`: SQL drawn from a fixed pool of `n` texts; `None`: every
    /// SQL text is distinct.
    pub sql_pool: Option<usize>,
    /// One durable `degrade` of this factor lands mid-trace.
    pub degrade: Option<f64>,
}

/// The dense request trace `derive_catalog` replays against each derived
/// catalog: 2,000 requests with distinct SQL at 95 per virtual second
/// against the default 100/s service capacity.
pub const SERVE_DENSE: TraceSpec = TraceSpec {
    events: 2000,
    rate_per_s: 95.0,
    observe_share: 0.0,
    sql_pool: None,
    degrade: None,
};

/// `serve_drift`: 1,000 sparse events at 20 per virtual second, half of
/// them observations, over 12 repeated SQL texts, with one mid-trace
/// degrade.
pub const SERVE_DRIFT: TraceSpec = TraceSpec {
    events: 1000,
    rate_per_s: 20.0,
    observe_share: 0.5,
    sql_pool: Some(12),
    degrade: Some(3.0),
};

/// Stream salts so the generator's draws never share a stream with the
/// program's per-line agent seeds.
const ARRIVAL_STREAM: u64 = 0x7065_7266_5f61_7272;
const QUERY_STREAM: u64 = 0x7065_7266_5f71_7279;

/// One generated query: where it runs and its SQL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenQuery {
    /// Target site id (`oracle` or `db2`).
    pub site: &'static str,
    /// SQL text.
    pub sql: String,
}

/// Draws queries uniformly over both sites and all five classes.
pub struct QueryDraw {
    rng: Rng,
    generator: SampleGenerator,
    schemas: Vec<mdbs_sim::LocalCatalog>,
}

impl QueryDraw {
    /// A draw seeded from `seed`.
    pub fn new(seed: u64) -> QueryDraw {
        QueryDraw {
            rng: Rng::seed_from_u64(split_stream(seed, QUERY_STREAM)),
            generator: SampleGenerator::new(split_stream(seed, QUERY_STREAM + 1)),
            schemas: SITES.iter().map(|s| s.agent(0).catalog().clone()).collect(),
        }
    }

    /// One query of `class` at site `site` (index into [`SITES`]).
    pub fn query(&mut self, site: usize, class: usize) -> GenQuery {
        let schema = &self.schemas[site];
        let q = self.generator.generate(QueryClass::all()[class], schema);
        GenQuery {
            site: SITES[site].id(),
            sql: to_sql(schema, &q),
        }
    }

    /// One query at a uniformly drawn site and class.
    pub fn any(&mut self) -> GenQuery {
        let site = self.rng.gen_range(0..SITES.len());
        let class = self.rng.gen_range(0..QueryClass::all().len());
        self.query(site, class)
    }

    /// A query that differs from every text in `seen`, which it joins.
    pub fn distinct(&mut self, seen: &mut BTreeSet<(&'static str, String)>) -> GenQuery {
        loop {
            let q = self.any();
            if seen.insert((q.site, q.sql.clone())) {
                return q;
            }
        }
    }
}

/// Renders the trace text of `spec` for `seed`.
pub fn trace(spec: &TraceSpec, seed: u64) -> String {
    let mut arrivals = Rng::seed_from_u64(split_stream(seed, ARRIVAL_STREAM));
    let mut draw = QueryDraw::new(seed);
    let mut seen = BTreeSet::new();
    // The pool holds one text per (site, class) first, so every class is
    // exercised, then random extras.
    let cells = SITES.len() * QueryClass::all().len();
    let pool: Vec<GenQuery> = (0..spec.sql_pool.unwrap_or(0))
        .map(|i| {
            if i < cells {
                let q = draw.query(i % SITES.len(), i / SITES.len());
                seen.insert((q.site, q.sql.clone()));
                q
            } else {
                draw.distinct(&mut seen)
            }
        })
        .collect();
    let degrade_at = spec.degrade.map(|_| spec.events / 2);
    let mut out = String::new();
    let interval = 1.0 / spec.rate_per_s;
    for i in 0..spec.events {
        // Evenly spaced arrivals with ±30 % jitter: the rate holds at every
        // scale and timestamps never go backwards.
        let at = (i as f64 + 0.5 + 0.6 * (arrivals.gen_f64() - 0.5)) * interval;
        if Some(i) == degrade_at {
            let factor = spec.degrade.expect("degrade_at implies a factor");
            writeln!(out, "@{at:.6} degrade oracle {factor}").expect("write to String");
            continue;
        }
        let kind = if arrivals.gen_f64() < spec.observe_share {
            "observe"
        } else {
            "request"
        };
        let q = if pool.is_empty() {
            draw.distinct(&mut seen)
        } else {
            pool[arrivals.gen_range(0..pool.len())].clone()
        };
        writeln!(out, "@{at:.6} {kind} {} {}", q.site, q.sql).expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_core::classes::classify;
    use mdbs_sim::sql::parse_query;
    use std::collections::BTreeMap;

    /// Per-trace census: event kinds, (site, class) counts, SQL texts.
    #[derive(Default)]
    struct Census {
        kinds: BTreeMap<String, usize>,
        cells: BTreeMap<(String, QueryClass), usize>,
        texts: BTreeSet<String>,
        sql_events: usize,
        last_at: f64,
    }

    fn census(text: &str) -> Census {
        let schemas: BTreeMap<&str, mdbs_sim::LocalCatalog> = SITES
            .iter()
            .map(|s| (s.id(), s.agent(0).catalog().clone()))
            .collect();
        let mut c = Census::default();
        for line in text.lines() {
            let mut words = line.splitn(4, ' ');
            let at: f64 = words.next().unwrap()[1..].parse().unwrap();
            assert!(at >= c.last_at, "timestamps go backwards at {line}");
            c.last_at = at;
            let kind = words.next().unwrap().to_string();
            let site = words.next().unwrap().to_string();
            let rest = words.next().unwrap();
            *c.kinds.entry(kind.clone()).or_default() += 1;
            if kind == "degrade" {
                continue;
            }
            let query = parse_query(&schemas[site.as_str()], rest).unwrap();
            let class = classify(&schemas[site.as_str()], &query).unwrap();
            *c.cells.entry((site.clone(), class)).or_default() += 1;
            c.texts.insert(format!("{site} {rest}"));
            c.sql_events += 1;
        }
        c
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        for spec in [SERVE_DENSE, SERVE_DRIFT] {
            assert_eq!(trace(&spec, 7), trace(&spec, 7));
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        for spec in [SERVE_DENSE, SERVE_DRIFT] {
            assert_ne!(trace(&spec, 7), trace(&spec, 8));
        }
    }

    #[test]
    fn dense_trace_mix_matches_its_spec() {
        let c = census(&trace(&SERVE_DENSE, 3));
        assert_eq!(c.kinds.len(), 1);
        assert_eq!(c.kinds["request"], SERVE_DENSE.events);
        // Every SQL text is distinct.
        assert_eq!(c.texts.len(), SERVE_DENSE.events);
        // Both sites and all five classes, each cell within a loose band
        // around its uniform share of 200.
        assert_eq!(c.cells.len(), 10);
        for (cell, n) in &c.cells {
            assert!((140..=260).contains(n), "{cell:?}: {n}");
        }
        let rate = SERVE_DENSE.events as f64 / c.last_at;
        assert!((rate - 95.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn serve_drift_mix_matches_its_spec() {
        let c = census(&trace(&SERVE_DRIFT, 3));
        assert_eq!(c.kinds["degrade"], 1);
        let observes = c.kinds["observe"];
        let requests = c.kinds["request"];
        assert_eq!(observes + requests + 1, SERVE_DRIFT.events);
        assert!((430..=570).contains(&observes), "{observes} observes");
        // Twelve repeated texts covering both sites and all five classes.
        assert_eq!(c.texts.len(), 12);
        assert_eq!(c.cells.len(), 10);
        assert!((c.texts.len() as f64 / c.sql_events as f64) < 0.02);
        let rate = SERVE_DRIFT.events as f64 / c.last_at;
        assert!((rate - 20.0).abs() < 0.5, "rate {rate}");
    }
}
