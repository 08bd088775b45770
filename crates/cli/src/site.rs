//! Resolving `--site` / `--profile` options into simulated local sites.
//!
//! The CLI operates against the workspace's simulated MDBS: two built-in
//! local DBSs (`oracle`, `db2`) hosting the standard 12-table database,
//! driven by a contention profile chosen on the command line:
//!
//! * `uniform:LO:HI` — background processes uniform in `[LO, HI]`,
//! * `clustered` — the paper's tri-modal clustered case,
//! * `static:N` — a constant load of `N` processes.

use crate::args::ArgsError;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, LocalCatalog, MdbsAgent, VendorProfile};
use std::sync::{Arc, OnceLock};

/// A named simulated site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteName {
    /// The Oracle-8.0-like local DBS.
    Oracle,
    /// The DB2-5.0-like local DBS.
    Db2,
}

impl SiteName {
    /// Parses `--site`.
    pub fn parse(s: &str) -> Result<SiteName, ArgsError> {
        match s.to_ascii_lowercase().as_str() {
            "oracle" => Ok(SiteName::Oracle),
            "db2" => Ok(SiteName::Db2),
            other => Err(ArgsError(format!(
                "unknown site `{other}` (expected `oracle` or `db2`)"
            ))),
        }
    }

    /// The canonical catalog identifier of this site.
    pub fn id(self) -> &'static str {
        match self {
            SiteName::Oracle => "oracle",
            SiteName::Db2 => "db2",
        }
    }

    /// The site's standard database, generated once per process and shared
    /// by every agent of the site (agents copy it on their first schema
    /// change).
    fn schema(self) -> Arc<LocalCatalog> {
        static ORACLE: OnceLock<Arc<LocalCatalog>> = OnceLock::new();
        static DB2: OnceLock<Arc<LocalCatalog>> = OnceLock::new();
        let (cell, db_seed) = match self {
            SiteName::Oracle => (&ORACLE, 42),
            SiteName::Db2 => (&DB2, 43),
        };
        Arc::clone(cell.get_or_init(|| Arc::new(standard_database(db_seed))))
    }

    /// Builds an agent for this site with the given environment seed.
    pub fn agent(self, env_seed: u64) -> MdbsAgent {
        let vendor = match self {
            SiteName::Oracle => VendorProfile::oracle8(),
            SiteName::Db2 => VendorProfile::db2v5(),
        };
        MdbsAgent::new(vendor, self.schema(), env_seed)
    }
}

/// Parses `--profile` into a contention profile.
pub fn parse_profile(s: &str) -> Result<ContentionProfile, ArgsError> {
    let lower = s.to_ascii_lowercase();
    if lower == "clustered" {
        return Ok(ContentionProfile::paper_clustered());
    }
    let parts: Vec<&str> = lower.split(':').collect();
    match parts.as_slice() {
        ["uniform", lo, hi] => {
            let lo: f64 = lo
                .parse()
                .map_err(|_| ArgsError(format!("bad uniform lower bound `{lo}`")))?;
            let hi: f64 = hi
                .parse()
                .map_err(|_| ArgsError(format!("bad uniform upper bound `{hi}`")))?;
            if !(lo >= 0.0 && hi >= lo) {
                return Err(ArgsError(format!(
                    "uniform profile needs 0 <= LO <= HI, got {lo}:{hi}"
                )));
            }
            Ok(ContentionProfile::Uniform { lo, hi })
        }
        ["static", n] => {
            let n: f64 = n
                .parse()
                .map_err(|_| ArgsError(format!("bad static process count `{n}`")))?;
            Ok(ContentionProfile::Constant(n))
        }
        _ => Err(ArgsError(format!(
            "unknown profile `{s}` (expected `uniform:LO:HI`, `clustered` or `static:N`)"
        ))),
    }
}

/// Builds a site agent with the profile applied.
pub fn site_agent(site: SiteName, profile: &ContentionProfile, env_seed: u64) -> MdbsAgent {
    let mut agent = site.agent(env_seed);
    agent.set_load_builder(LoadBuilder::new(profile.clone()));
    agent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_parse() {
        assert_eq!(SiteName::parse("oracle").unwrap(), SiteName::Oracle);
        assert_eq!(SiteName::parse("DB2").unwrap(), SiteName::Db2);
        assert!(SiteName::parse("postgres").is_err());
    }

    #[test]
    fn profiles_parse() {
        assert_eq!(
            parse_profile("uniform:20:125").unwrap(),
            ContentionProfile::Uniform {
                lo: 20.0,
                hi: 125.0
            }
        );
        assert_eq!(
            parse_profile("static:15").unwrap(),
            ContentionProfile::Constant(15.0)
        );
        assert!(matches!(
            parse_profile("clustered").unwrap(),
            ContentionProfile::Clustered { .. }
        ));
        assert!(parse_profile("uniform:9").is_err());
        assert!(parse_profile("uniform:50:10").is_err());
        assert!(parse_profile("bogus").is_err());
    }

    #[test]
    fn shared_schema_agents_match_freshly_built_ones() {
        use mdbs_sim::query::{Predicate, Query, UnaryQuery};
        let profile = parse_profile("uniform:20:125").unwrap();
        for (site, vendor, db_seed) in [
            (SiteName::Oracle, VendorProfile::oracle8(), 42),
            (SiteName::Db2, VendorProfile::db2v5(), 43),
        ] {
            for env_seed in [1, 7] {
                let mut shared = site_agent(site, &profile, env_seed);
                let mut fresh =
                    MdbsAgent::new(vendor.clone(), standard_database(db_seed), env_seed);
                fresh.set_load_builder(LoadBuilder::new(profile.clone()));
                assert_eq!(shared.catalog().tables(), fresh.catalog().tables());
                for step in 0..120u32 {
                    let t = &fresh.catalog().tables()[step as usize % 12];
                    let query = Query::Unary(UnaryQuery {
                        table: t.id,
                        projection: vec![0, 2],
                        predicates: vec![Predicate::lt(4, t.columns[4].domain_max / 3)],
                        order_by: None,
                    });
                    shared.tick();
                    fresh.tick();
                    assert_eq!(shared.probe().to_bits(), fresh.probe().to_bits());
                    let (a, b) = (shared.run(&query).unwrap(), fresh.run(&query).unwrap());
                    assert_eq!(a.cost_s.to_bits(), b.cost_s.to_bits(), "step {step}");
                    assert_eq!((a.access, a.sizes), (b.access, b.sizes));
                }
            }
        }
    }

    #[test]
    fn site_schema_is_built_once_and_never_mutated() {
        use mdbs_sim::events::EnvironmentEvent;
        let first = SiteName::Oracle.agent(1);
        let mut grown = SiteName::Oracle.agent(2);
        assert!(Arc::ptr_eq(
            &first.shared_catalog(),
            &grown.shared_catalog()
        ));
        grown
            .apply_event(&EnvironmentEvent::TableGrowth {
                table: mdbs_sim::TableId(3),
                factor: 2.0,
            })
            .unwrap();
        assert_eq!(
            SiteName::Oracle.schema().tables(),
            standard_database(42).tables()
        );
        assert!(Arc::ptr_eq(
            &SiteName::Oracle.schema(),
            &first.shared_catalog()
        ));
        assert_ne!(grown.catalog().tables(), first.catalog().tables());
    }

    #[test]
    fn agents_differ_per_site() {
        let o = SiteName::Oracle.agent(1);
        let d = SiteName::Db2.agent(1);
        assert_ne!(o.vendor().name, d.vendor().name);
    }
}
