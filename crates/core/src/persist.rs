//! Catalog persistence.
//!
//! "The cost model parameters are kept in the MDBS catalog and utilized
//! during query optimization" (paper §1) — which requires the models to
//! survive the process that derived them. This module gives [`CostModel`],
//! [`ProbeCostEstimator`], [`ModelAccumulator`] (the sufficient statistics
//! behind a model, so incremental refits can resume in a later process)
//! and the whole [`GlobalCatalog`] a line-oriented,
//! versioned, human-readable text format with exact `f64` round-trips
//! (Rust's shortest-round-trip float formatting).
//!
//! The format is deliberately not JSON: the workspace's dependency budget
//! has no serde format crate, and a catalog entry is simple enough that a
//! hand-rolled format with a version tag is the smaller risk.

use crate::catalog::{GlobalCatalog, SiteId};
use crate::classes::QueryClass;
use crate::model::{CostModel, FitStats, ModelAccumulator, ModelForm};
use crate::probing::ProbeCostEstimator;
use crate::qualvar::StateSet;
use crate::CoreError;
use std::fmt::{self, Write as _};

/// Current format version tag.
pub const FORMAT_VERSION: &str = "v1";

fn parse_err(msg: impl Into<String>) -> CoreError {
    CoreError::Degenerate(format!("catalog parse error: {}", msg.into()))
}

/// A parse error pinned to a 1-based line number of the input text, so a
/// corrupt multi-thousand-line catalog points at the offending line
/// instead of making the operator bisect it by hand.
fn parse_err_at(line: usize, msg: impl Into<String>) -> CoreError {
    CoreError::Degenerate(format!(
        "catalog parse error at line {line}: {}",
        msg.into()
    ))
}

/// Rewrites a line-less `catalog parse error:` (from a shared helper like
/// [`ModelForm::parse`]) into its line-pinned form; errors that already
/// carry a line, or are not parse errors at all, pass through untouched.
fn pin_line<T>(line: usize, r: Result<T, CoreError>) -> Result<T, CoreError> {
    r.map_err(|e| match e {
        CoreError::Degenerate(msg) => match msg.strip_prefix("catalog parse error: ") {
            Some(rest) => parse_err_at(line, rest),
            None => CoreError::Degenerate(msg),
        },
        other => other,
    })
}

/// A `String` takes every write, so a catalog writer's `fmt::Result` is
/// always `Ok`.
const STRING_WRITE: &str = "writing to a String cannot fail";

/// Writes `values` separated by single spaces and ends the line: the tail
/// of a `tag v₁ v₂ …` line. Floats print in Rust's shortest round-trip
/// form (`inf`, `-inf` and `NaN` included), straight into `out`.
fn write_values<T: fmt::Display>(
    out: &mut String,
    values: impl IntoIterator<Item = T>,
) -> fmt::Result {
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        write!(out, "{v}")?;
    }
    out.push('\n');
    Ok(())
}

/// Writes a `tag i₁:name₁ i₂:name₂ …` line.
fn write_labels(out: &mut String, tag: &str, indexes: &[usize], names: &[String]) -> fmt::Result {
    write!(out, "{tag} ")?;
    for (k, (i, n)) in indexes.iter().zip(names).enumerate() {
        if k > 0 {
            out.push(' ');
        }
        write!(out, "{i}:{n}")?;
    }
    out.push('\n');
    Ok(())
}

fn parse_f64(s: &str) -> Result<f64, CoreError> {
    s.parse::<f64>()
        .map_err(|_| parse_err(format!("bad float `{s}`")))
}

impl ModelForm {
    /// Stable textual tag.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelForm::Coincident => "coincident",
            ModelForm::Parallel => "parallel",
            ModelForm::Concurrent => "concurrent",
            ModelForm::General => "general",
        }
    }

    /// Parses the stable tag.
    pub fn parse(s: &str) -> Result<ModelForm, CoreError> {
        match s {
            "coincident" => Ok(ModelForm::Coincident),
            "parallel" => Ok(ModelForm::Parallel),
            "concurrent" => Ok(ModelForm::Concurrent),
            "general" => Ok(ModelForm::General),
            other => Err(parse_err(format!("unknown model form `{other}`"))),
        }
    }
}

impl QueryClass {
    /// Stable textual tag used by the catalog format.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryClass::UnaryNoIndex => "unary_no_index",
            QueryClass::UnaryNonClusteredIndex => "unary_nonclustered_index",
            QueryClass::UnaryClusteredIndex => "unary_clustered_index",
            QueryClass::JoinNoIndex => "join_no_index",
            QueryClass::JoinIndexed => "join_indexed",
        }
    }

    /// Parses the stable tag.
    pub fn parse(s: &str) -> Result<QueryClass, CoreError> {
        QueryClass::all()
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| parse_err(format!("unknown query class `{s}`")))
    }
}

impl CostModel {
    /// Serializes the model to a catalog entry.
    pub fn to_catalog_entry(&self) -> String {
        let mut out = String::new();
        self.write_catalog_entry(&mut out).expect(STRING_WRITE);
        out
    }

    /// Appends [`Self::to_catalog_entry`]'s text to `out`.
    fn write_catalog_entry(&self, out: &mut String) -> fmt::Result {
        writeln!(out, "costmodel {FORMAT_VERSION}")?;
        writeln!(out, "form {}", self.form.as_str())?;
        out.push_str("states ");
        write_values(out, self.states.edges())?;
        write_labels(out, "vars", &self.var_indexes, &self.var_names)?;
        let fit = &self.fit;
        writeln!(
            out,
            "fit {} {} {} {} {} {} {}",
            fit.r_squared, fit.adj_r_squared, fit.see, fit.f_statistic, fit.f_p_value, fit.n, fit.k
        )?;
        for (s, coefs) in self.coefficients.iter().enumerate() {
            write!(out, "coef {s} ")?;
            write_values(out, coefs)?;
        }
        out.push_str("end\n");
        Ok(())
    }

    /// Parses a catalog entry produced by [`Self::to_catalog_entry`].
    pub fn from_catalog_entry(text: &str) -> Result<CostModel, CoreError> {
        CostModel::from_catalog_entry_at(text, 1)
    }

    /// Like [`Self::from_catalog_entry`], but `first_line` names the
    /// 1-based line number `text` starts at within the enclosing file, so
    /// errors point at the absolute offending line.
    pub fn from_catalog_entry_at(text: &str, first_line: usize) -> Result<CostModel, CoreError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (first_line + i, l.trim()))
            .filter(|(_, l)| !l.is_empty());
        let (hline, header) = lines
            .next()
            .ok_or_else(|| parse_err_at(first_line, "empty entry"))?;
        let mut h = header.split_whitespace();
        if h.next() != Some("costmodel") {
            return Err(parse_err_at(hline, "missing `costmodel` header"));
        }
        let version = h
            .next()
            .ok_or_else(|| parse_err_at(hline, "missing version"))?;
        if version != FORMAT_VERSION {
            return Err(parse_err_at(
                hline,
                format!("unsupported version `{version}`"),
            ));
        }
        let mut form: Option<ModelForm> = None;
        let mut states: Option<StateSet> = None;
        let mut var_indexes = Vec::new();
        let mut var_names = Vec::new();
        let mut fit: Option<FitStats> = None;
        let mut coefficients: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut last_line = hline;
        for (ln, line) in lines {
            last_line = ln;
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("form") => {
                    form = Some(pin_line(
                        ln,
                        ModelForm::parse(
                            parts
                                .next()
                                .ok_or_else(|| parse_err_at(ln, "form tag missing"))?,
                        ),
                    )?);
                }
                Some("states") => {
                    let edges: Result<Vec<f64>, _> = parts.map(parse_f64).collect();
                    states = Some(StateSet::from_edges(pin_line(ln, edges)?)?);
                }
                Some("vars") => {
                    for v in parts {
                        let (idx, name) = v
                            .split_once(':')
                            .ok_or_else(|| parse_err_at(ln, format!("bad var spec `{v}`")))?;
                        var_indexes.push(
                            idx.parse::<usize>()
                                .map_err(|_| parse_err_at(ln, format!("bad var index `{idx}`")))?,
                        );
                        var_names.push(name.to_string());
                    }
                }
                Some("fit") => {
                    let vals: Vec<&str> = parts.collect();
                    if vals.len() != 7 {
                        return Err(parse_err_at(ln, "fit line needs 7 fields"));
                    }
                    fit = Some(FitStats {
                        r_squared: pin_line(ln, parse_f64(vals[0]))?,
                        adj_r_squared: pin_line(ln, parse_f64(vals[1]))?,
                        see: pin_line(ln, parse_f64(vals[2]))?,
                        f_statistic: pin_line(ln, parse_f64(vals[3]))?,
                        f_p_value: pin_line(ln, parse_f64(vals[4]))?,
                        n: vals[5]
                            .parse()
                            .map_err(|_| parse_err_at(ln, "bad n in fit line"))?,
                        k: vals[6]
                            .parse()
                            .map_err(|_| parse_err_at(ln, "bad k in fit line"))?,
                    });
                }
                Some("coef") => {
                    let s: usize = parts
                        .next()
                        .ok_or_else(|| parse_err_at(ln, "coef state missing"))?
                        .parse()
                        .map_err(|_| parse_err_at(ln, "bad coef state index"))?;
                    let cs: Result<Vec<f64>, _> = parts.map(parse_f64).collect();
                    coefficients.push((s, pin_line(ln, cs)?));
                }
                Some("end") => break,
                Some(other) => return Err(parse_err_at(ln, format!("unknown line `{other}`"))),
                None => continue,
            }
        }
        let form = form.ok_or_else(|| parse_err_at(last_line, "missing form"))?;
        let states = states.ok_or_else(|| parse_err_at(last_line, "missing states"))?;
        let fit = fit.ok_or_else(|| parse_err_at(last_line, "missing fit"))?;
        coefficients.sort_by_key(|(s, _)| *s);
        if coefficients.len() != states.len() {
            return Err(parse_err_at(
                last_line,
                format!(
                    "{} coefficient rows for {} states",
                    coefficients.len(),
                    states.len()
                ),
            ));
        }
        let p = var_indexes.len();
        let coefficients: Vec<Vec<f64>> = coefficients.into_iter().map(|(_, c)| c).collect();
        if coefficients.iter().any(|c| c.len() != p + 1) {
            return Err(parse_err_at(
                last_line,
                "coefficient row width does not match vars",
            ));
        }
        Ok(CostModel {
            form,
            states,
            var_indexes,
            var_names,
            coefficients,
            fit,
        })
    }
}

impl ModelAccumulator {
    /// Serializes the accumulator to a catalog entry.
    ///
    /// Each per-state Gram block is written as a `block` line holding the
    /// scalar statistics followed by `xtx`/`xty` lines with the matrix
    /// entries; every float uses the exact shortest-round-trip formatting,
    /// so import reproduces the accumulator bit for bit.
    pub fn to_catalog_entry(&self) -> String {
        let mut out = String::new();
        self.write_catalog_entry(&mut out).expect(STRING_WRITE);
        out
    }

    /// Appends [`Self::to_catalog_entry`]'s text to `out`.
    fn write_catalog_entry(&self, out: &mut String) -> fmt::Result {
        writeln!(out, "gramacc {FORMAT_VERSION}")?;
        writeln!(out, "form {}", self.form().as_str())?;
        out.push_str("states ");
        write_values(out, self.states().edges())?;
        write_labels(out, "vars", self.var_indexes(), self.var_names())?;
        for (s, b) in self.blocks().iter().enumerate() {
            writeln!(out, "block {s} {} {} {}", b.n(), b.yty(), b.sum_y())?;
            out.push_str("xtx ");
            write_values(out, b.xtx())?;
            out.push_str("xty ");
            write_values(out, b.xty())?;
        }
        out.push_str("end\n");
        Ok(())
    }

    /// Parses a catalog entry produced by [`Self::to_catalog_entry`].
    pub fn from_catalog_entry(text: &str) -> Result<ModelAccumulator, CoreError> {
        ModelAccumulator::from_catalog_entry_at(text, 1)
    }

    /// Like [`Self::from_catalog_entry`], but `first_line` names the
    /// 1-based line number `text` starts at within the enclosing file.
    pub fn from_catalog_entry_at(
        text: &str,
        first_line: usize,
    ) -> Result<ModelAccumulator, CoreError> {
        struct PartialBlock {
            line: usize,
            state: usize,
            n: usize,
            yty: f64,
            sum_y: f64,
            xtx: Option<Vec<f64>>,
            xty: Option<Vec<f64>>,
        }
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (first_line + i, l.trim()))
            .filter(|(_, l)| !l.is_empty());
        let (hline, header) = lines
            .next()
            .ok_or_else(|| parse_err_at(first_line, "empty entry"))?;
        let mut h = header.split_whitespace();
        if h.next() != Some("gramacc") {
            return Err(parse_err_at(hline, "missing `gramacc` header"));
        }
        if h.next() != Some(FORMAT_VERSION) {
            return Err(parse_err_at(hline, "unsupported gramacc version"));
        }
        let mut form: Option<ModelForm> = None;
        let mut states: Option<StateSet> = None;
        let mut var_indexes = Vec::new();
        let mut var_names = Vec::new();
        let mut blocks: Vec<PartialBlock> = Vec::new();
        let mut last_line = hline;
        for (ln, line) in lines {
            last_line = ln;
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("form") => {
                    form = Some(pin_line(
                        ln,
                        ModelForm::parse(
                            parts
                                .next()
                                .ok_or_else(|| parse_err_at(ln, "form tag missing"))?,
                        ),
                    )?);
                }
                Some("states") => {
                    let edges: Result<Vec<f64>, _> = parts.map(parse_f64).collect();
                    states = Some(StateSet::from_edges(pin_line(ln, edges)?)?);
                }
                Some("vars") => {
                    for v in parts {
                        let (idx, name) = v
                            .split_once(':')
                            .ok_or_else(|| parse_err_at(ln, format!("bad var spec `{v}`")))?;
                        var_indexes.push(
                            idx.parse::<usize>()
                                .map_err(|_| parse_err_at(ln, format!("bad var index `{idx}`")))?,
                        );
                        var_names.push(name.to_string());
                    }
                }
                Some("block") => {
                    let vals: Vec<&str> = parts.collect();
                    if vals.len() != 4 {
                        return Err(parse_err_at(ln, "block line needs 4 fields"));
                    }
                    blocks.push(PartialBlock {
                        line: ln,
                        state: vals[0]
                            .parse()
                            .map_err(|_| parse_err_at(ln, "bad block state index"))?,
                        n: vals[1]
                            .parse()
                            .map_err(|_| parse_err_at(ln, "bad block n"))?,
                        yty: pin_line(ln, parse_f64(vals[2]))?,
                        sum_y: pin_line(ln, parse_f64(vals[3]))?,
                        xtx: None,
                        xty: None,
                    });
                }
                Some("xtx") => {
                    let vals: Result<Vec<f64>, _> = parts.map(parse_f64).collect();
                    let block = blocks
                        .last_mut()
                        .ok_or_else(|| parse_err_at(ln, "xtx line before any block"))?;
                    block.xtx = Some(pin_line(ln, vals)?);
                }
                Some("xty") => {
                    let vals: Result<Vec<f64>, _> = parts.map(parse_f64).collect();
                    let block = blocks
                        .last_mut()
                        .ok_or_else(|| parse_err_at(ln, "xty line before any block"))?;
                    block.xty = Some(pin_line(ln, vals)?);
                }
                Some("end") => break,
                Some(other) => return Err(parse_err_at(ln, format!("unknown line `{other}`"))),
                None => continue,
            }
        }
        let form = form.ok_or_else(|| parse_err_at(last_line, "missing form"))?;
        let states = states.ok_or_else(|| parse_err_at(last_line, "missing states"))?;
        let k = var_indexes.len() + 1;
        blocks.sort_by_key(|b| b.state);
        if blocks.iter().enumerate().any(|(i, b)| b.state != i) {
            return Err(parse_err_at(
                last_line,
                "block state indexes are not contiguous from 0",
            ));
        }
        let grams: Result<Vec<_>, CoreError> = blocks
            .into_iter()
            .map(|b| {
                let xtx = b
                    .xtx
                    .ok_or_else(|| parse_err_at(b.line, "block missing xtx line"))?;
                let xty = b
                    .xty
                    .ok_or_else(|| parse_err_at(b.line, "block missing xty line"))?;
                mdbs_stats::GramAccumulator::from_parts(k, b.n, xtx, xty, b.yty, b.sum_y)
                    .map_err(CoreError::from)
            })
            .collect();
        ModelAccumulator::from_parts(form, states, var_indexes, var_names, grams?)
    }
}

impl ProbeCostEstimator {
    /// Serializes the estimator to a catalog entry.
    pub fn to_catalog_entry(&self) -> String {
        let mut out = String::new();
        self.write_catalog_entry(&mut out).expect(STRING_WRITE);
        out
    }

    /// Appends [`Self::to_catalog_entry`]'s text to `out`.
    fn write_catalog_entry(&self, out: &mut String) -> fmt::Result {
        writeln!(out, "probeest {FORMAT_VERSION}")?;
        write_labels(out, "params", &self.selected, &self.names)?;
        out.push_str("coef ");
        write_values(out, &self.coefficients)?;
        writeln!(out, "fit {} {}", self.r_squared, self.see)?;
        out.push_str("end\n");
        Ok(())
    }

    /// Parses a catalog entry produced by [`Self::to_catalog_entry`].
    pub fn from_catalog_entry(text: &str) -> Result<ProbeCostEstimator, CoreError> {
        ProbeCostEstimator::from_catalog_entry_at(text, 1)
    }

    /// Like [`Self::from_catalog_entry`], but `first_line` names the
    /// 1-based line number `text` starts at within the enclosing file.
    pub fn from_catalog_entry_at(
        text: &str,
        first_line: usize,
    ) -> Result<ProbeCostEstimator, CoreError> {
        let mut selected = Vec::new();
        let mut names = Vec::new();
        let mut coefficients = Vec::new();
        let mut r_squared = 0.0;
        let mut see = 0.0;
        let mut seen_header = false;
        let mut last_line = first_line;
        for (ln, line) in text
            .lines()
            .enumerate()
            .map(|(i, l)| (first_line + i, l.trim()))
            .filter(|(_, l)| !l.is_empty())
        {
            last_line = ln;
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("probeest") => {
                    if parts.next() != Some(FORMAT_VERSION) {
                        return Err(parse_err_at(ln, "unsupported probeest version"));
                    }
                    seen_header = true;
                }
                Some("params") => {
                    for v in parts {
                        let (idx, name) = v
                            .split_once(':')
                            .ok_or_else(|| parse_err_at(ln, format!("bad param spec `{v}`")))?;
                        selected.push(
                            idx.parse::<usize>()
                                .map_err(|_| parse_err_at(ln, "bad param index"))?,
                        );
                        names.push(name.to_string());
                    }
                }
                Some("coef") => {
                    let cs: Result<Vec<f64>, _> = parts.map(parse_f64).collect();
                    coefficients = pin_line(ln, cs)?;
                }
                Some("fit") => {
                    r_squared = pin_line(
                        ln,
                        parse_f64(parts.next().ok_or_else(|| parse_err_at(ln, "fit r2"))?),
                    )?;
                    see = pin_line(
                        ln,
                        parse_f64(parts.next().ok_or_else(|| parse_err_at(ln, "fit see"))?),
                    )?;
                }
                Some("end") => break,
                Some(other) => return Err(parse_err_at(ln, format!("unknown line `{other}`"))),
                None => continue,
            }
        }
        if !seen_header {
            return Err(parse_err_at(first_line, "missing `probeest` header"));
        }
        if coefficients.len() != selected.len() + 1 {
            return Err(parse_err_at(last_line, "coef width does not match params"));
        }
        Ok(ProbeCostEstimator {
            selected,
            names,
            coefficients,
            r_squared,
            see,
        })
    }
}

impl GlobalCatalog {
    /// Serializes the whole catalog (all models and probe estimators).
    pub fn export(&self) -> String {
        self.export_versioned(0)
    }

    /// Serializes the catalog with a snapshot version tag. Version 0 means
    /// "unversioned" and writes the exact historical byte layout (no
    /// `snapshot-version` line), so pre-existing catalogs and their
    /// byte-identity gates are unaffected; any other version adds a
    /// `snapshot-version N` line right after the header.
    pub fn export_versioned(&self, version: u64) -> String {
        let mut out = String::new();
        self.write_versioned(&mut out, version).expect(STRING_WRITE);
        out
    }

    /// Appends [`Self::export_versioned`]'s text to `out`.
    fn write_versioned(&self, out: &mut String, version: u64) -> fmt::Result {
        writeln!(out, "mdbs-catalog {FORMAT_VERSION}")?;
        if version > 0 {
            writeln!(out, "snapshot-version {version}")?;
        }
        let mut sites: Vec<SiteId> = self.sites().into_iter().collect();
        sites.sort();
        for site in sites {
            for class in self.classes_for(&site) {
                let model = self.model(&site, class).expect("class listed for site");
                writeln!(out, "entry {} {}", site, class.as_str())?;
                model.write_catalog_entry(out)?;
                if let Some(acc) = self.accumulator(&site, class) {
                    writeln!(out, "gram-entry {} {}", site, class.as_str())?;
                    acc.write_catalog_entry(out)?;
                }
            }
            if let Some(est) = self.probe_estimator(&site) {
                writeln!(out, "probe-entry {site}")?;
                est.write_catalog_entry(out)?;
            }
        }
        Ok(())
    }

    /// Parses a catalog produced by [`Self::export`], discarding the
    /// snapshot version if one is present.
    pub fn import(text: &str) -> Result<GlobalCatalog, CoreError> {
        GlobalCatalog::import_versioned(text).map(|(catalog, _)| catalog)
    }

    /// Parses a catalog produced by [`Self::export_versioned`], returning
    /// the catalog and its snapshot version (0 when the text carries no
    /// `snapshot-version` line). Parse errors name the 1-based line of the
    /// input they occurred on.
    pub fn import_versioned(text: &str) -> Result<(GlobalCatalog, u64), CoreError> {
        let mut catalog = GlobalCatalog::new();
        let mut version = 0u64;
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let (_, header) = lines.next().ok_or_else(|| parse_err("empty catalog"))?;
        if !header.starts_with("mdbs-catalog") {
            return Err(parse_err_at(1, "missing catalog header"));
        }
        while let Some((ln, line)) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("snapshot-version") => {
                    version = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| parse_err_at(ln, "bad snapshot-version"))?;
                }
                Some("entry") => {
                    let site: SiteId = parts
                        .next()
                        .ok_or_else(|| parse_err_at(ln, "entry site missing"))?
                        .into();
                    let class = pin_line(
                        ln,
                        QueryClass::parse(
                            parts
                                .next()
                                .ok_or_else(|| parse_err_at(ln, "entry class missing"))?,
                        ),
                    )?;
                    let (block, start) = collect_block(&mut lines, ln)?;
                    let model = CostModel::from_catalog_entry_at(&block, start)?;
                    model
                        .check_variables(class)
                        .map_err(|msg| parse_err_at(ln, msg))?;
                    catalog.insert_model(site, class, model);
                }
                Some("gram-entry") => {
                    let site: SiteId = parts
                        .next()
                        .ok_or_else(|| parse_err_at(ln, "gram-entry site missing"))?
                        .into();
                    let class = pin_line(
                        ln,
                        QueryClass::parse(
                            parts
                                .next()
                                .ok_or_else(|| parse_err_at(ln, "gram-entry class missing"))?,
                        ),
                    )?;
                    let (block, start) = collect_block(&mut lines, ln)?;
                    let acc = ModelAccumulator::from_catalog_entry_at(&block, start)?;
                    catalog.insert_accumulator(site, class, acc);
                }
                Some("probe-entry") => {
                    let site: SiteId = parts
                        .next()
                        .ok_or_else(|| parse_err_at(ln, "probe-entry site missing"))?
                        .into();
                    let (block, start) = collect_block(&mut lines, ln)?;
                    let est = ProbeCostEstimator::from_catalog_entry_at(&block, start)?;
                    catalog.insert_probe_estimator(site, est);
                }
                Some(other) => {
                    return Err(parse_err_at(ln, format!("unknown catalog line `{other}`")))
                }
                None => continue,
            }
        }
        Ok((catalog, version))
    }
}

/// Collects lines up to and including the next `end`, returning the block
/// text and the 1-based line number its first line had in the input
/// (`after_line + 1`; errors in the block are reported relative to it).
fn collect_block<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    after_line: usize,
) -> Result<(String, usize), CoreError> {
    let mut block = String::new();
    for (_ln, line) in lines.by_ref() {
        block.push_str(line);
        block.push('\n');
        if line.trim() == "end" {
            return Ok((block, after_line + 1));
        }
    }
    Err(parse_err_at(
        after_line,
        "unterminated block (missing `end`)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::fit_cost_model;
    use crate::observation::Observation;

    fn sample_model(m: usize) -> CostModel {
        let states = if m == 1 {
            StateSet::single()
        } else {
            StateSet::uniform(0.0, m as f64, m).unwrap()
        };
        let mut obs = Vec::new();
        for s in 0..m {
            for i in 0..12 {
                let x = i as f64 * 3.0;
                obs.push(Observation {
                    x: vec![x, x * 0.7, (i % 4) as f64 * 2.0],
                    cost: (s + 1) as f64 * (1.5 + 2.5 * x) + (i % 3) as f64 * 0.01,
                    probe_cost: s as f64 + 0.5,
                });
            }
        }
        fit_cost_model(
            if m == 1 {
                ModelForm::Coincident
            } else {
                ModelForm::General
            },
            states,
            vec![0, 2],
            vec!["N_O".into(), "N_R".into()],
            &obs,
        )
        .unwrap()
    }

    #[test]
    fn cost_model_roundtrip_exact() {
        for m in [1usize, 3, 5] {
            let model = sample_model(m);
            let text = model.to_catalog_entry();
            let back = CostModel::from_catalog_entry(&text).unwrap();
            assert_eq!(back, model, "m = {m}");
        }
    }

    #[test]
    fn single_state_infinite_edges_roundtrip() {
        let model = sample_model(1);
        assert!(model.states.edges()[0].is_infinite());
        let back = CostModel::from_catalog_entry(&model.to_catalog_entry()).unwrap();
        assert_eq!(back.states.edges(), model.states.edges());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CostModel::from_catalog_entry("").is_err());
        assert!(CostModel::from_catalog_entry("costmodel v999\nend\n").is_err());
        assert!(CostModel::from_catalog_entry("costmodel v1\nbogus line\nend\n").is_err());
        // Truncated: missing coefficients for one state.
        let model = sample_model(3);
        let text = model.to_catalog_entry();
        let truncated: String = text
            .lines()
            .filter(|l| !l.starts_with("coef 2"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(CostModel::from_catalog_entry(&truncated).is_err());
    }

    #[test]
    fn class_tags_roundtrip() {
        for class in QueryClass::all() {
            assert_eq!(QueryClass::parse(class.as_str()).unwrap(), class);
        }
        assert!(QueryClass::parse("nonsense").is_err());
    }

    #[test]
    fn form_tags_roundtrip() {
        for form in [
            ModelForm::Coincident,
            ModelForm::Parallel,
            ModelForm::Concurrent,
            ModelForm::General,
        ] {
            assert_eq!(ModelForm::parse(form.as_str()).unwrap(), form);
        }
    }

    #[test]
    fn catalog_roundtrip() {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("site-a".into(), QueryClass::UnaryNoIndex, sample_model(3));
        catalog.insert_model("site-a".into(), QueryClass::JoinNoIndex, sample_model(2));
        catalog.insert_model("site-b".into(), QueryClass::UnaryNoIndex, sample_model(4));
        let text = catalog.export();
        let back = GlobalCatalog::import(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (site, class) in [
            ("site-a", QueryClass::UnaryNoIndex),
            ("site-a", QueryClass::JoinNoIndex),
            ("site-b", QueryClass::UnaryNoIndex),
        ] {
            assert_eq!(
                back.model(&site.into(), class),
                catalog.model(&site.into(), class),
                "{site}/{class:?}"
            );
        }
    }

    #[test]
    fn accumulator_roundtrip_exact() {
        for m in [1usize, 3] {
            let model = sample_model(m);
            let obs: Vec<Observation> = (0..(12 * m))
                .map(|i| {
                    let x = i as f64 * 3.0;
                    Observation {
                        x: vec![x, x * 0.7, (i % 4) as f64 * 2.0],
                        cost: 1.5 + 2.5 * x + (i % 3) as f64 * 0.01,
                        probe_cost: (i % m) as f64 + 0.5,
                    }
                })
                .collect();
            let acc = ModelAccumulator::from_observations(&model, &obs).expect("finite sample");
            let text = acc.to_catalog_entry();
            let back = ModelAccumulator::from_catalog_entry(&text).unwrap();
            // Bit-exact: shortest-round-trip floats reproduce every Gram entry.
            assert_eq!(back, acc, "m = {m}");
            assert_eq!(back.refit().unwrap(), acc.refit().unwrap(), "m = {m}");
        }
    }

    #[test]
    fn accumulator_parse_rejects_garbage() {
        assert!(ModelAccumulator::from_catalog_entry("").is_err());
        assert!(ModelAccumulator::from_catalog_entry("gramacc v999\nend\n").is_err());
        let model = sample_model(3);
        let acc = ModelAccumulator::from_observations(&model, &[]).expect("finite sample");
        let text = acc.to_catalog_entry();
        // Drop one block's xty line: the block is incomplete.
        let mut dropped = false;
        let truncated: String = text
            .lines()
            .filter(|l| {
                if !dropped && l.starts_with("xty") {
                    dropped = true;
                    false
                } else {
                    true
                }
            })
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(ModelAccumulator::from_catalog_entry(&truncated).is_err());
        // Renumber a block so the state indexes are not contiguous.
        let renumbered = text.replace("block 2 ", "block 7 ");
        assert!(ModelAccumulator::from_catalog_entry(&renumbered).is_err());
    }

    #[test]
    fn catalog_roundtrip_with_gram_entries() {
        let mut catalog = GlobalCatalog::new();
        let model = sample_model(3);
        let obs: Vec<Observation> = (0..36)
            .map(|i| {
                let x = i as f64 * 3.0;
                Observation {
                    x: vec![x, x * 0.7, (i % 4) as f64 * 2.0],
                    cost: 1.5 + 2.5 * x + (i % 3) as f64 * 0.01,
                    probe_cost: (i % 3) as f64 + 0.5,
                }
            })
            .collect();
        let acc = ModelAccumulator::from_observations(&model, &obs).expect("finite sample");
        catalog.insert_model("site-a".into(), QueryClass::UnaryNoIndex, model);
        catalog.insert_accumulator("site-a".into(), QueryClass::UnaryNoIndex, acc.clone());
        catalog.insert_model("site-b".into(), QueryClass::JoinNoIndex, sample_model(2));
        let text = catalog.export();
        let back = GlobalCatalog::import(&text).unwrap();
        assert_eq!(
            back.accumulator(&"site-a".into(), QueryClass::UnaryNoIndex),
            Some(&acc)
        );
        assert!(back
            .accumulator(&"site-b".into(), QueryClass::JoinNoIndex)
            .is_none());
        // A second export of the re-imported catalog is byte-identical.
        assert_eq!(back.export(), text);
    }

    #[test]
    fn catalog_import_rejects_bad_header() {
        assert!(GlobalCatalog::import("not a catalog\n").is_err());
        assert!(GlobalCatalog::import("").is_err());
    }

    fn error_message(e: CoreError) -> String {
        match e {
            CoreError::Degenerate(msg) => msg,
            other => panic!("unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_absolute_line_numbers() {
        // Corrupt one float deep inside a multi-entry catalog: the error
        // must name the absolute line of the corrupted text, not a
        // block-relative offset.
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("site-a".into(), QueryClass::UnaryNoIndex, sample_model(3));
        catalog.insert_model("site-b".into(), QueryClass::JoinNoIndex, sample_model(2));
        let text = catalog.export();
        let lines: Vec<&str> = text.lines().collect();
        // Corrupt the *last* `fit` line (inside site-b's entry).
        let bad_line_no = lines
            .iter()
            .rposition(|l| l.starts_with("fit "))
            .map(|i| i + 1)
            .unwrap();
        let corrupted: String = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i + 1 == bad_line_no {
                    "fit NOT_A_FLOAT 0 0 0 0 5 2\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let msg = error_message(GlobalCatalog::import(&corrupted).unwrap_err());
        assert_eq!(
            msg,
            format!("catalog parse error at line {bad_line_no}: bad float `NOT_A_FLOAT`"),
        );
    }

    #[test]
    fn unknown_line_error_names_its_line() {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("site-a".into(), QueryClass::UnaryNoIndex, sample_model(1));
        let mut text = catalog.export();
        text.push_str("garbage-line here\n");
        let n = text.lines().count();
        let msg = error_message(GlobalCatalog::import(&text).unwrap_err());
        assert_eq!(
            msg,
            format!("catalog parse error at line {n}: unknown catalog line `garbage-line`"),
        );
    }

    #[test]
    fn snapshot_version_roundtrip() {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("site-a".into(), QueryClass::UnaryNoIndex, sample_model(3));
        // Version 0 keeps the historical byte layout.
        assert_eq!(catalog.export_versioned(0), catalog.export());
        let versioned = catalog.export_versioned(42);
        assert!(versioned.contains("snapshot-version 42\n"));
        let (back, v) = GlobalCatalog::import_versioned(&versioned).unwrap();
        assert_eq!(v, 42);
        assert_eq!(back.export(), catalog.export());
        // Plain import tolerates the version line.
        assert_eq!(GlobalCatalog::import(&versioned).unwrap().len(), 1);
        // A bad version value is a parse error at line 2.
        let msg = error_message(
            GlobalCatalog::import(&versioned.replace("snapshot-version 42", "snapshot-version x"))
                .unwrap_err(),
        );
        assert_eq!(msg, "catalog parse error at line 2: bad snapshot-version");
    }
}
