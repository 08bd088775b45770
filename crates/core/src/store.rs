//! Versioned catalog snapshot store: one [`CatalogStore`] abstraction in
//! front of every load/store call site and a compact byte-stable binary
//! format behind it. The unit of storage is a whole snapshot.
//!
//! The text format in [`crate::persist`] stays the human-readable
//! interchange form; this module adds the machine form the serving paths
//! load at startup:
//!
//! * **Snapshots.** A [`CatalogSnapshot`] pairs a [`GlobalCatalog`] with a
//!   monotone `version` on the same axis as
//!   [`crate::registry::ModelRegistry`] versions: a registry loaded from a
//!   snapshot starts at that version, and [`CatalogSnapshot::publish_derived`]
//!   — the one step by which `derive` adds a model — advances it by one
//!   per model, as a registry publish does. Binary files open with a
//!   `MDBC` magic plus a little-endian `u32` format version, then carry
//!   length-prefixed frames; every `f64` travels as its little-endian
//!   IEEE-754 bit pattern in the variable-length encoding of
//!   [`mdbs_stats::suffstats::push_f64_compact`] (low-order zero bytes
//!   dropped), so coefficients and Gram blocks round-trip bit for bit —
//!   no float formatting or parsing anywhere on the path — while
//!   integer-valued Gram sums stay only a few bytes wide.
//! * **Files.** [`FileCatalogStore`] sniffs the on-disk format (magic ⇒
//!   binary, `mdbs-catalog` ⇒ text), loads either, and writes whichever
//!   format it was configured with — the CLI's `archive`/`restore`
//!   subcommands are thin wrappers over it.
//! * **Hostile bytes.** Loading is total: every count is checked against
//!   the bytes left before anything is allocated for it, and a model
//!   whose variable indexes run past its class's variable family is
//!   rejected, so corrupt files of either format fail as
//!   [`StoreError::Corrupt`], never a panic or an abort.

use crate::catalog::{GlobalCatalog, SiteId};
use crate::classes::QueryClass;
use crate::derive::{BatchOutcome, DerivedModel};
use crate::model::{CostModel, FitStats, ModelAccumulator, ModelForm};
use crate::probing::ProbeCostEstimator;
use crate::qualvar::StateSet;
use crate::CoreError;
use mdbs_obs::Telemetry;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Magic bytes opening every binary catalog file.
pub const BINARY_MAGIC: [u8; 4] = *b"MDBC";

/// Binary container format version (little-endian `u32` after the magic).
pub const BINARY_FORMAT_VERSION: u32 = 1;

/// Frame tag of a full snapshot, the only frame kind.
const FRAME_SNAPSHOT: u8 = b'S';

/// Entry kinds within a snapshot frame.
const ENTRY_MODEL: u8 = 1;
const ENTRY_GRAM: u8 = 2;
const ENTRY_PROBE: u8 = 3;

/// Class byte reserved for entries that carry no query class (probe
/// estimators are per-site).
const NO_CLASS: u8 = 0xff;

fn bin_err(msg: impl Into<String>) -> CoreError {
    CoreError::Degenerate(format!("catalog binary error: {}", msg.into()))
}

/// The serialization format of a catalog file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogFormat {
    /// The line-oriented human-readable format of [`crate::persist`].
    Text,
    /// The compact length-prefixed binary format of this module.
    Binary,
}

impl CatalogFormat {
    /// Stable textual tag (the CLI's `--format` values).
    pub fn as_str(self) -> &'static str {
        match self {
            CatalogFormat::Text => "text",
            CatalogFormat::Binary => "binary",
        }
    }

    /// Parses the stable tag.
    pub fn parse(s: &str) -> Result<CatalogFormat, CoreError> {
        match s {
            "text" => Ok(CatalogFormat::Text),
            "binary" => Ok(CatalogFormat::Binary),
            other => Err(CoreError::Degenerate(format!(
                "unknown catalog format `{other}` (expected `text` or `binary`)"
            ))),
        }
    }
}

/// A versioned catalog state: the catalog plus the monotone snapshot
/// version it represents (0 = unversioned/empty history).
#[derive(Debug, Clone, Default)]
pub struct CatalogSnapshot {
    /// Monotone snapshot version, aligned with
    /// [`crate::registry::ModelRegistry::version`].
    pub version: u64,
    /// The catalog content.
    pub catalog: GlobalCatalog,
}

impl CatalogSnapshot {
    /// An empty, unversioned snapshot.
    pub fn new() -> CatalogSnapshot {
        CatalogSnapshot::default()
    }

    /// Wraps a catalog at a given version.
    pub fn at_version(catalog: GlobalCatalog, version: u64) -> CatalogSnapshot {
        CatalogSnapshot { version, catalog }
    }

    /// Publishes one derived model on top of this snapshot: the model, the
    /// sufficient statistics a later `serve --loop` resumes incremental
    /// refits from, and the site's probe estimator when the derivation
    /// logged its sample ([`DerivedModel::probe_estimator`]). Each publish
    /// advances the version by one, as a registry publish does. A failed
    /// estimator fit is returned and publishes nothing.
    pub fn publish_derived(
        &mut self,
        site: &SiteId,
        derived: &DerivedModel,
    ) -> Result<(), CoreError> {
        let estimator = derived.probe_estimator().transpose()?;
        self.publish_model(site, derived);
        if let Some(est) = estimator {
            self.catalog.insert_probe_estimator(site.clone(), est);
        }
        Ok(())
    }

    /// Publishes a batch's models in job order, one version per successful
    /// outcome, and one probe estimator per site: the one of the site's
    /// last successful job, fitted here and only here. An estimator that
    /// fails to fit is not kept, and the latest earlier job's that fits is
    /// kept instead; its job's model stays published. When every fit
    /// succeeds, the result is what publishing the outcomes one by one with
    /// [`Self::publish_derived`] leaves.
    ///
    /// Returns each discarded fit: the outcome's index and its error.
    pub fn publish_batch(&mut self, outcomes: &[BatchOutcome]) -> Vec<(usize, CoreError)> {
        for outcome in outcomes {
            if let Ok(derived) = &outcome.result {
                self.publish_model(&outcome.job.site, derived);
            }
        }
        let mut discarded = Vec::new();
        let mut settled = BTreeSet::new();
        for (index, outcome) in outcomes.iter().enumerate().rev() {
            let site = &outcome.job.site;
            let Ok(derived) = &outcome.result else {
                continue;
            };
            if settled.contains(site) {
                continue;
            }
            match derived.probe_estimator() {
                Some(Err(e)) => {
                    discarded.push((index, e));
                    continue;
                }
                Some(Ok(est)) => self.catalog.insert_probe_estimator(site.clone(), est),
                None => {}
            }
            settled.insert(site);
        }
        discarded.reverse();
        discarded
    }

    /// Publishes a derived model and its sufficient statistics, advancing
    /// the version by one.
    fn publish_model(&mut self, site: &SiteId, derived: &DerivedModel) {
        let class = derived.class;
        self.catalog
            .insert_model(site.clone(), class, derived.model.clone());
        self.catalog
            .insert_accumulator(site.clone(), class, derived.accumulator.clone());
        self.version += 1;
    }
}

fn form_code(form: ModelForm) -> u8 {
    match form {
        ModelForm::Coincident => 0,
        ModelForm::Parallel => 1,
        ModelForm::Concurrent => 2,
        ModelForm::General => 3,
    }
}

fn form_from_code(code: u8) -> Result<ModelForm, CoreError> {
    match code {
        0 => Ok(ModelForm::Coincident),
        1 => Ok(ModelForm::Parallel),
        2 => Ok(ModelForm::Concurrent),
        3 => Ok(ModelForm::General),
        other => Err(bin_err(format!("unknown model form code {other}"))),
    }
}

fn class_code(class: QueryClass) -> u8 {
    QueryClass::all()
        .iter()
        .position(|&c| c == class)
        .expect("class is in the canonical list") as u8
}

fn class_from_code(code: u8) -> Result<QueryClass, CoreError> {
    QueryClass::all()
        .get(code as usize)
        .copied()
        .ok_or_else(|| bin_err(format!("unknown query class code {code}")))
}

// ---- primitive writers ----------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    mdbs_stats::suffstats::push_f64_compact(out, v);
}

// Site and variable names are short (u16 lengths), as are state/variable
// counts — the compact format spends its bytes on the floats.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u16(out, vs.len() as u16);
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_vars(out: &mut Vec<u8>, indexes: &[usize], names: &[String]) {
    put_u16(out, indexes.len() as u16);
    for (i, n) in indexes.iter().zip(names) {
        put_u16(out, *i as u16);
        put_str(out, n);
    }
}

/// Bounds-checked little-endian reader for the binary catalog format.
struct BinReader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> BinReader<'a> {
    fn new(bytes: &'a [u8]) -> BinReader<'a> {
        BinReader { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bin_err("truncated file"))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CoreError> {
        let (v, used) = mdbs_stats::suffstats::read_f64_compact(&self.bytes[self.off..])
            .ok_or_else(|| bin_err("bad compact float"))?;
        self.off += used;
        Ok(v)
    }

    fn str(&mut self) -> Result<String, CoreError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bin_err("non-UTF-8 string"))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CoreError> {
        let len = self.u16()? as usize;
        // Each compact float costs at least one byte.
        if len > self.remaining() {
            return Err(bin_err("truncated file"));
        }
        (0..len).map(|_| self.f64()).collect()
    }

    fn vars(&mut self) -> Result<(Vec<usize>, Vec<String>), CoreError> {
        let len = self.u16()? as usize;
        let mut indexes = Vec::with_capacity(len.min(1024));
        let mut names = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            indexes.push(self.u16()? as usize);
            names.push(self.str()?);
        }
        Ok((indexes, names))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.off
    }

    fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn finish(&self) -> Result<(), CoreError> {
        if !self.is_empty() {
            return Err(bin_err("trailing bytes"));
        }
        Ok(())
    }
}

// ---- entry body codecs ----------------------------------------------------

fn encode_model(m: &CostModel) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(form_code(m.form));
    put_f64s(&mut out, m.states.edges());
    put_vars(&mut out, &m.var_indexes, &m.var_names);
    put_f64(&mut out, m.fit.r_squared);
    put_f64(&mut out, m.fit.adj_r_squared);
    put_f64(&mut out, m.fit.see);
    put_f64(&mut out, m.fit.f_statistic);
    put_f64(&mut out, m.fit.f_p_value);
    put_u32(&mut out, m.fit.n as u32);
    put_u32(&mut out, m.fit.k as u32);
    put_u16(&mut out, m.coefficients.len() as u16);
    for row in &m.coefficients {
        put_f64s(&mut out, row);
    }
    out
}

fn decode_model(bytes: &[u8]) -> Result<CostModel, CoreError> {
    let mut r = BinReader::new(bytes);
    let form = form_from_code(r.u8()?)?;
    let states = StateSet::from_edges(r.f64s()?)?;
    let (var_indexes, var_names) = r.vars()?;
    let fit = FitStats {
        r_squared: r.f64()?,
        adj_r_squared: r.f64()?,
        see: r.f64()?,
        f_statistic: r.f64()?,
        f_p_value: r.f64()?,
        n: r.u32()? as usize,
        k: r.u32()? as usize,
    };
    let rows = r.u16()? as usize;
    if rows != states.len() {
        return Err(bin_err(format!(
            "{rows} coefficient rows for {} states",
            states.len()
        )));
    }
    let mut coefficients = Vec::with_capacity(rows);
    for _ in 0..rows {
        let row = r.f64s()?;
        if row.len() != var_indexes.len() + 1 {
            return Err(bin_err("coefficient row width does not match vars"));
        }
        coefficients.push(row);
    }
    r.finish()?;
    Ok(CostModel {
        form,
        states,
        var_indexes,
        var_names,
        coefficients,
        fit,
    })
}

/// Accumulator shape layout flags: `SHAPE_FROM_MODEL` inherits
/// form/states/vars from the model entry of the same (site, class) — the
/// text format writes them twice per pair, the binary snapshot needn't;
/// `SHAPE_SELF` carries its own, the fallback for an accumulator whose
/// shape differs from its model's.
const SHAPE_SELF: u8 = 0;
const SHAPE_FROM_MODEL: u8 = 1;

/// Snapshot-frame accumulator encoding: when the accumulator's shape is
/// bit-exactly the model's (the invariant every producer maintains), emit
/// `SHAPE_FROM_MODEL` and only the Gram blocks; otherwise fall back to
/// `SHAPE_SELF`.
fn encode_accumulator(model: &CostModel, acc: &ModelAccumulator) -> Vec<u8> {
    let same_states = acc.states().edges().len() == model.states.edges().len()
        && acc
            .states()
            .edges()
            .iter()
            .zip(model.states.edges())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if acc.form() == model.form
        && same_states
        && acc.var_indexes() == model.var_indexes.as_slice()
        && acc.var_names() == model.var_names.as_slice()
    {
        let mut out = vec![SHAPE_FROM_MODEL];
        put_blocks(&mut out, acc);
        return out;
    }
    let mut out = vec![SHAPE_SELF];
    out.push(form_code(acc.form()));
    put_f64s(&mut out, acc.states().edges());
    put_vars(&mut out, acc.var_indexes(), acc.var_names());
    put_blocks(&mut out, acc);
    out
}

fn put_blocks(out: &mut Vec<u8>, acc: &ModelAccumulator) {
    put_u16(out, acc.blocks().len() as u16);
    for block in acc.blocks() {
        let bytes = block.to_bytes();
        put_u32(out, bytes.len() as u32);
        out.extend_from_slice(&bytes);
    }
}

/// Decodes either accumulator layout. `model` provides the shape for
/// `SHAPE_FROM_MODEL` bodies; `None` (no model entry precedes the
/// accumulator) rejects them.
fn decode_accumulator(
    bytes: &[u8],
    model: Option<&CostModel>,
) -> Result<ModelAccumulator, CoreError> {
    let mut r = BinReader::new(bytes);
    let (form, states, var_indexes, var_names) = match r.u8()? {
        SHAPE_SELF => {
            let form = form_from_code(r.u8()?)?;
            let states = StateSet::from_edges(r.f64s()?)?;
            let (var_indexes, var_names) = r.vars()?;
            (form, states, var_indexes, var_names)
        }
        SHAPE_FROM_MODEL => {
            let m = model.ok_or_else(|| {
                bin_err("accumulator inherits its shape but no model entry precedes it")
            })?;
            (
                m.form,
                m.states.clone(),
                m.var_indexes.clone(),
                m.var_names.clone(),
            )
        }
        other => return Err(bin_err(format!("unknown accumulator shape flag {other}"))),
    };
    let blocks_len = r.u16()? as usize;
    let mut blocks = Vec::with_capacity(blocks_len.min(1024));
    for _ in 0..blocks_len {
        let len = r.u32()? as usize;
        let block = mdbs_stats::GramAccumulator::from_bytes(r.take(len)?)?;
        blocks.push(block);
    }
    r.finish()?;
    ModelAccumulator::from_parts(form, states, var_indexes, var_names, blocks)
}

fn encode_probe(est: &ProbeCostEstimator) -> Vec<u8> {
    let mut out = Vec::new();
    put_vars(&mut out, &est.selected, &est.names);
    put_f64s(&mut out, &est.coefficients);
    put_f64(&mut out, est.r_squared);
    put_f64(&mut out, est.see);
    out
}

fn decode_probe(bytes: &[u8]) -> Result<ProbeCostEstimator, CoreError> {
    let mut r = BinReader::new(bytes);
    let (selected, names) = r.vars()?;
    let coefficients = r.f64s()?;
    let r_squared = r.f64()?;
    let see = r.f64()?;
    r.finish()?;
    if coefficients.len() != selected.len() + 1 {
        return Err(bin_err("probe coefficient width does not match params"));
    }
    Ok(ProbeCostEstimator {
        selected,
        names,
        coefficients,
        r_squared,
        see,
    })
}

// ---- frame codecs ---------------------------------------------------------

fn encode_entry(out: &mut Vec<u8>, kind: u8, site: &str, class: u8, body: &[u8]) {
    out.push(kind);
    put_str(out, site);
    out.push(class);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

/// Entries go in the canonical (site, class) order — the order
/// [`GlobalCatalog::export`] writes — so the model entry of a (site, class)
/// always precedes its accumulator. Accumulators without a model, like in
/// the text format, are not written.
fn encode_snapshot_frame(snap: &CatalogSnapshot) -> Vec<u8> {
    let catalog = &snap.catalog;
    let mut payload = Vec::new();
    put_u64(&mut payload, snap.version);
    put_u32(&mut payload, catalog.entry_count() as u32);
    for site in catalog.sites() {
        for class in catalog.classes_for(&site) {
            let model = catalog.model(&site, class).expect("class listed for site");
            let code = class_code(class);
            let body = encode_model(model);
            encode_entry(&mut payload, ENTRY_MODEL, &site.0, code, &body);
            if let Some(acc) = catalog.accumulator(&site, class) {
                let body = encode_accumulator(model, acc);
                encode_entry(&mut payload, ENTRY_GRAM, &site.0, code, &body);
            }
        }
        if let Some(est) = catalog.probe_estimator(&site) {
            let body = encode_probe(est);
            encode_entry(&mut payload, ENTRY_PROBE, &site.0, NO_CLASS, &body);
        }
    }
    payload
}

fn decode_snapshot_frame(payload: &[u8]) -> Result<CatalogSnapshot, CoreError> {
    let mut r = BinReader::new(payload);
    let version = r.u64()?;
    let count = r.u32()? as usize;
    let mut catalog = GlobalCatalog::new();
    for _ in 0..count {
        let kind = r.u8()?;
        let site = SiteId(r.str()?);
        let class = r.u8()?;
        let len = r.u32()? as usize;
        let body = r.take(len)?;
        match kind {
            ENTRY_MODEL => {
                let (class, model) = (class_from_code(class)?, decode_model(body)?);
                model.check_variables(class).map_err(bin_err)?;
                catalog.insert_model(site, class, model);
            }
            ENTRY_GRAM => {
                let class = class_from_code(class)?;
                let acc = decode_accumulator(body, catalog.model(&site, class))?;
                catalog.insert_accumulator(site, class, acc);
            }
            ENTRY_PROBE => {
                if class != NO_CLASS {
                    return Err(bin_err("probe entry carries a class byte"));
                }
                catalog.insert_probe_estimator(site, decode_probe(body)?);
            }
            other => return Err(bin_err(format!("unknown entry kind {other}"))),
        }
    }
    r.finish()?;
    Ok(CatalogSnapshot { version, catalog })
}

fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.push(kind);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Serializes a snapshot to complete binary-file bytes: magic, container
/// version, one snapshot frame.
pub fn snapshot_to_bytes(snap: &CatalogSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&BINARY_FORMAT_VERSION.to_le_bytes());
    let payload = encode_snapshot_frame(snap);
    out.extend_from_slice(&encode_frame(FRAME_SNAPSHOT, &payload));
    out
}

/// Parses complete binary-file bytes: checks the magic and container
/// version and decodes the one snapshot frame. Any other frame — a second
/// snapshot, or a kind this version does not know — makes the file
/// corrupt.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<CatalogSnapshot, CoreError> {
    let mut r = BinReader::new(bytes);
    let magic = r.take(4)?;
    if magic != BINARY_MAGIC {
        return Err(bin_err("bad magic (not a binary catalog)"));
    }
    let container = r.u32()?;
    if container != BINARY_FORMAT_VERSION {
        return Err(bin_err(format!(
            "unsupported binary format version {container} (supported: {BINARY_FORMAT_VERSION})"
        )));
    }
    let mut snap: Option<CatalogSnapshot> = None;
    while !r.is_empty() {
        let kind = r.u8()?;
        let len = r.u64()? as usize;
        let payload = r.take(len)?;
        match (kind, &snap) {
            (FRAME_SNAPSHOT, None) => snap = Some(decode_snapshot_frame(payload)?),
            (FRAME_SNAPSHOT, Some(_)) => {
                return Err(bin_err("second snapshot frame in one file"));
            }
            (other, _) => return Err(bin_err(format!("unknown frame kind {other}"))),
        }
    }
    snap.ok_or_else(|| bin_err("no snapshot frame in file"))
}

// ---- the store abstraction ------------------------------------------------

/// A load/store error: either an I/O failure on the backing medium
/// (carrying the [`std::io::Error`], so callers keep their exit-code
/// taxonomy) or corrupt/inconsistent catalog content.
#[derive(Debug)]
pub enum StoreError {
    /// The backing file could not be read or written.
    Io {
        /// What the store was doing (e.g. `read catalog /path`).
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The content was read but does not decode to a valid snapshot.
    Corrupt(CoreError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt(e) => Some(e),
        }
    }
}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> StoreError {
        StoreError::Corrupt(e)
    }
}

/// The persistence abstraction every catalog load/store call site goes
/// through: load a whole versioned snapshot, or store one whole.
pub trait CatalogStore {
    /// Loads and fully materializes the snapshot. Emits
    /// `catalog.load_bytes` / `catalog.load_entries` counters and the
    /// `catalog.format` gauge.
    fn load(&self, tel: &mut Telemetry) -> Result<CatalogSnapshot, StoreError>;

    /// Writes the snapshot whole, replacing any previous content. Emits
    /// `catalog.store_bytes` / `catalog.store_entries` and
    /// `catalog.format`.
    fn store(&self, snap: &CatalogSnapshot, tel: &mut Telemetry) -> Result<(), StoreError>;

    /// The format [`CatalogStore::store`] would write.
    fn format(&self) -> CatalogFormat;
}

/// A [`CatalogStore`] over one file path. Loading sniffs the actual
/// content (binary magic vs. text header), so a store configured for one
/// format still reads the other; writing uses the configured format, or —
/// when constructed with [`FileCatalogStore::sniffing`] — whatever format
/// the file already holds (text for fresh files, keeping the historical
/// CLI behavior byte-compatible).
#[derive(Debug, Clone)]
pub struct FileCatalogStore {
    path: PathBuf,
    format: Option<CatalogFormat>,
}

impl FileCatalogStore {
    /// A store that writes `format`.
    pub fn new(path: impl Into<PathBuf>, format: CatalogFormat) -> FileCatalogStore {
        FileCatalogStore {
            path: path.into(),
            format: Some(format),
        }
    }

    /// A store that writes whatever format the file already holds, or
    /// text when the file does not exist yet.
    pub fn sniffing(path: impl Into<PathBuf>) -> FileCatalogStore {
        FileCatalogStore {
            path: path.into(),
            format: None,
        }
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Like [`CatalogStore::load`], but a missing file is an empty
    /// unversioned snapshot instead of an error — the "first run"
    /// convention of `derive`.
    pub fn load_or_empty(&self, tel: &mut Telemetry) -> Result<CatalogSnapshot, StoreError> {
        match self.load(tel) {
            Ok(snap) => Ok(snap),
            Err(StoreError::Io { ref source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                Ok(CatalogSnapshot::new())
            }
            Err(e) => Err(e),
        }
    }

    fn io_err(&self, what: &str, source: std::io::Error) -> StoreError {
        StoreError::Io {
            context: format!("cannot {what} `{}`", self.path.display()),
            source,
        }
    }

    /// The format `store` will write: configured > sniffed > text.
    fn write_format(&self) -> CatalogFormat {
        if let Some(f) = self.format {
            return f;
        }
        match std::fs::read(&self.path) {
            Ok(bytes) if bytes.starts_with(&BINARY_MAGIC) => CatalogFormat::Binary,
            _ => CatalogFormat::Text,
        }
    }
}

fn format_gauge(tel: &mut Telemetry, format: CatalogFormat) {
    let code = match format {
        CatalogFormat::Text => 0.0,
        CatalogFormat::Binary => 1.0,
    };
    tel.gauge("catalog.format", code);
}

impl CatalogStore for FileCatalogStore {
    fn load(&self, tel: &mut Telemetry) -> Result<CatalogSnapshot, StoreError> {
        let bytes = std::fs::read(&self.path).map_err(|e| self.io_err("read", e))?;
        let (snap, format) = if bytes.starts_with(&BINARY_MAGIC) {
            (snapshot_from_bytes(&bytes)?, CatalogFormat::Binary)
        } else {
            let text = String::from_utf8(bytes.clone())
                .map_err(|_| StoreError::Corrupt(bin_err("neither binary magic nor UTF-8 text")))?;
            let (catalog, version) = GlobalCatalog::import_versioned(&text)?;
            (CatalogSnapshot { version, catalog }, CatalogFormat::Text)
        };
        tel.inc("catalog.load_bytes", bytes.len() as u64);
        tel.inc("catalog.load_entries", snap.catalog.entry_count() as u64);
        format_gauge(tel, format);
        Ok(snap)
    }

    fn store(&self, snap: &CatalogSnapshot, tel: &mut Telemetry) -> Result<(), StoreError> {
        let format = self.write_format();
        let bytes = match format {
            CatalogFormat::Binary => snapshot_to_bytes(snap),
            CatalogFormat::Text => snap.catalog.export_versioned(snap.version).into_bytes(),
        };
        std::fs::write(&self.path, &bytes).map_err(|e| self.io_err("write", e))?;
        tel.inc("catalog.store_bytes", bytes.len() as u64);
        tel.inc("catalog.store_entries", snap.catalog.entry_count() as u64);
        format_gauge(tel, format);
        Ok(())
    }

    fn format(&self) -> CatalogFormat {
        self.write_format()
    }
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
                // Non-terminating decimals, like real measured costs — the
                // text format spends ~17 digits per float on these.
                let x = (i as f64 + 1.0) * 3.0337;
                obs.push(Observation {
                    x: vec![x, (i % 5) as f64 * 1.3177 + 0.503, (i % 4) as f64 * 2.00071],
                    cost: (s + 1) as f64 * (1.5 + 2.4991 * x) + (i % 3) as f64 * 0.010013,
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
            vec![0, 1, 2],
            vec!["N_O".into(), "S_O".into(), "N_R".into()],
            &obs,
        )
        .unwrap()
    }

    fn sample_obs(m: usize, n: usize, salt: u64) -> Vec<Observation> {
        (0..n)
            .map(|i| {
                let x = (i as f64 + salt as f64 * 0.2501) * 3.0337;
                Observation {
                    x: vec![x, (i % 5) as f64 * 1.3177 + 0.503, (i % 4) as f64 * 2.00071],
                    cost: 1.5 + 2.4991 * x + (i % 3) as f64 * 0.010013,
                    probe_cost: (i % m) as f64 + 0.5,
                }
            })
            .collect()
    }

    fn sample_snapshot(version: u64) -> CatalogSnapshot {
        let mut catalog = GlobalCatalog::new();
        let model = sample_model(3);
        let acc = ModelAccumulator::from_observations(&model, &sample_obs(3, 36, 0))
            .expect("finite sample");
        catalog.insert_model("site-a".into(), QueryClass::UnaryNoIndex, model);
        catalog.insert_accumulator("site-a".into(), QueryClass::UnaryNoIndex, acc);
        let model2 = sample_model(2);
        let acc2 = ModelAccumulator::from_observations(&model2, &sample_obs(2, 24, 3))
            .expect("finite sample");
        catalog.insert_model("site-a".into(), QueryClass::JoinNoIndex, model2);
        catalog.insert_accumulator("site-a".into(), QueryClass::JoinNoIndex, acc2);
        catalog.insert_model(
            "site-b".into(),
            QueryClass::UnaryClusteredIndex,
            sample_model(1),
        );
        catalog.insert_probe_estimator(
            "site-b".into(),
            ProbeCostEstimator {
                selected: vec![0, 2],
                names: vec!["cpu".into(), "io".into()],
                coefficients: vec![0.5, 1.25, -0.75],
                r_squared: 0.9,
                see: 0.1,
            },
        );
        CatalogSnapshot::at_version(catalog, version)
    }

    #[test]
    fn binary_roundtrip_bit_exact() {
        let snap = sample_snapshot(7);
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back.version, 7);
        // Text export of both catalogs is byte-identical (the text format
        // is already bit-exact, so this proves the binary one is too).
        assert_eq!(back.catalog.export(), snap.catalog.export());
        // And re-encoding is byte-identical.
        assert_eq!(snapshot_to_bytes(&back), bytes);
    }

    #[test]
    fn binary_rejects_corruption() {
        let snap = sample_snapshot(1);
        let bytes = snapshot_to_bytes(&snap);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(snapshot_from_bytes(&bad).is_err());
        // Wrong container version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(snapshot_from_bytes(&bad).is_err());
        // Truncations at every prefix length fail cleanly (never panic).
        for cut in 0..bytes.len() {
            assert!(snapshot_from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage.
        let mut bad = bytes;
        bad.push(0xEE);
        assert!(snapshot_from_bytes(&bad).is_err());
    }

    #[test]
    fn file_store_roundtrip_both_formats() {
        let dir = std::env::temp_dir().join("mdbs-store-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample_snapshot(11);
        let mut tel = Telemetry::enabled();
        for format in [CatalogFormat::Text, CatalogFormat::Binary] {
            let path = dir.join(format!("cat.{}", format.as_str()));
            let store = FileCatalogStore::new(&path, format);
            store.store(&snap, &mut tel).unwrap();
            let back = store.load(&mut tel).unwrap();
            assert_eq!(back.version, 11, "{format:?}");
            assert_eq!(back.catalog.export(), snap.catalog.export(), "{format:?}");
        }
        // Binary is meaningfully smaller than text even at this tiny
        // scale (the bench asserts the full ≥3× criterion on a
        // realistic 2-vendor × 3-class catalog).
        let text_len = std::fs::metadata(dir.join("cat.text")).unwrap().len();
        let bin_len = std::fs::metadata(dir.join("cat.binary")).unwrap().len();
        assert!(
            bin_len * 2 <= text_len,
            "binary {bin_len} should be ≥2× smaller than text {text_len}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_and_load_count_persisted_entries() {
        let dir = std::env::temp_dir().join("mdbs-store-test-entry-counts");
        std::fs::create_dir_all(&dir).unwrap();
        // 3 models + 2 accumulators + 1 probe estimator. An accumulator
        // without a model is not persisted, so it is not counted.
        let mut snap = sample_snapshot(4);
        let orphan =
            ModelAccumulator::from_observations(&sample_model(1), &[]).expect("finite sample");
        snap.catalog
            .insert_accumulator("site-c".into(), QueryClass::JoinIndexed, orphan);
        for format in [CatalogFormat::Text, CatalogFormat::Binary] {
            let store = FileCatalogStore::new(dir.join(format.as_str()), format);
            let mut tel = Telemetry::enabled();
            store.store(&snap, &mut tel).unwrap();
            store.load(&mut tel).unwrap();
            assert_eq!(
                tel.metrics.counter("catalog.store_entries"),
                6,
                "{format:?}"
            );
            assert_eq!(tel.metrics.counter("catalog.load_entries"), 6, "{format:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sniffing_store_preserves_existing_format() {
        let dir = std::env::temp_dir().join("mdbs-store-test-sniff");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat");
        let mut tel = Telemetry::disabled();
        // Fresh file: text.
        let sniffer = FileCatalogStore::sniffing(&path);
        assert_eq!(sniffer.format(), CatalogFormat::Text);
        // Once binary content exists, the sniffer keeps writing binary.
        FileCatalogStore::new(&path, CatalogFormat::Binary)
            .store(&sample_snapshot(2), &mut tel)
            .unwrap();
        assert_eq!(sniffer.format(), CatalogFormat::Binary);
        sniffer.store(&sample_snapshot(3), &mut tel).unwrap();
        assert_eq!(sniffer.load(&mut tel).unwrap().version, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_empty_on_missing_file() {
        let store = FileCatalogStore::sniffing("/nonexistent/definitely/missing.catalog");
        let mut tel = Telemetry::disabled();
        let snap = store.load_or_empty(&mut tel).unwrap();
        assert_eq!(snap.version, 0);
        assert!(snap.catalog.is_empty());
        assert!(store.load(&mut tel).is_err(), "plain load still errors");
    }

    #[test]
    fn text_load_reads_versioned_text() {
        let dir = std::env::temp_dir().join("mdbs-store-test-text-version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.txt");
        let snap = sample_snapshot(9);
        std::fs::write(&path, snap.catalog.export_versioned(9)).unwrap();
        let mut tel = Telemetry::disabled();
        let back = FileCatalogStore::sniffing(&path).load(&mut tel).unwrap();
        assert_eq!(back.version, 9);
        std::fs::remove_dir_all(&dir).ok();
    }
}
