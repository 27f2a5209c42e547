//! The durable audit journal and its deterministic replay.
//!
//! An append-only JSONL file records every change to the authorization
//! state (administrative programs, group membership, updates) and every
//! per-query authorization outcome (the canonical plan, the mask's
//! byte-stable rendering, the inferred permits, delivery counts — plus
//! an R2 decision summary and an EXPLAIN digest when
//! [`JournalConfig::explain_digests`] is on). Each segment opens with a
//! full state snapshot, so any segment replays standalone: the
//! `motro-audit` tool re-executes the journaled queries against the
//! journaled state and asserts the masks and permits reproduce
//! byte-identically.
//!
//! Record kinds (one JSON object per line, `t` is the discriminator):
//!
//! | `t` | fields | meaning |
//! |---|---|---|
//! | `open` | `epoch`, `state` | segment start: full `Frontend` JSON |
//! | `admin` | `epoch`, `stmt`, `messages`, `touched` | administrative program |
//! | `member` | `epoch`, `op`, `group`, `user`, `message`, `touched` | membership |
//! | `update` | `epoch`, `principal`, `stmt`, `message`, `touched` | insert/delete |
//! | `query` | see [`QueryRecord`] | one authorization outcome |
//!
//! `touched` is the mutation's reported dependency touched-set (the
//! rendered [`motro_mat::Touched`]; `["*"]` means everything), recorded
//! so an audit can reconstruct which cached masks each change
//! invalidated.
//!
//! `epoch` is the authorization epoch *after* the record's effect, and
//! the writer appends state-changing records while holding the
//! front-end's write lock (queries under the read lock), so file order
//! is epoch-consistent: replaying records in order reproduces the exact
//! epoch sequence.
//!
//! Rotation renames the live file `path` to `path.N` (N increasing) once
//! it exceeds [`JournalConfig::max_bytes`] and starts a fresh segment
//! with a new `open` snapshot. [`replay_all`] discovers and replays the
//! whole chain in order.

use motro_authz::Frontend;
use motro_mat::Touched;
use serde_json::{Map, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

/// Configuration for the audit journal.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The live segment's path; rotated segments get `.1`, `.2`, ...
    pub path: PathBuf,
    /// `fsync` after every record (durability over throughput).
    pub fsync: bool,
    /// Rotate once the live segment exceeds this many bytes.
    /// `0` disables rotation.
    pub max_bytes: u64,
    /// Journal an R2 decision summary and an fnv64 digest of the full
    /// EXPLAIN rendering with every query record. Costs one traced
    /// mask computation per query — off by default.
    pub explain_digests: bool,
}

impl JournalConfig {
    /// A journal at `path` with rotation and digests off, fsync off.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            path: path.into(),
            fsync: false,
            max_bytes: 0,
            explain_digests: false,
        }
    }
}

/// One query's journaled authorization outcome.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The session principal.
    pub principal: String,
    /// The statement as received.
    pub stmt: String,
    /// What the authorization produced.
    pub outcome: QueryOutcome,
    /// The authorization epoch the outcome was computed under.
    pub epoch: u64,
    /// Whether the mask came from the server's cache.
    pub cached: bool,
    /// R2 case counts (label → count) when explain digests are on.
    pub r2: Option<Vec<(String, u64)>>,
    /// fnv64 digest (hex) of the full EXPLAIN rendering, when on.
    pub explain_fnv: Option<String>,
    /// Trace id (hex) of the request that produced this record, when
    /// the tracing pipeline handled it. Replay ignores it; it exists so
    /// audit records join traces and exemplars on one id.
    pub trace_id: Option<String>,
}

/// The outcome side of a [`QueryRecord`].
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// A masked row-level answer.
    Rows {
        /// The canonical plan's display form.
        plan: String,
        /// [`motro_authz::core::Mask::canonical_render`].
        mask: String,
        /// Rendered inferred permit statements.
        permits: Vec<String>,
        /// Rows delivered (possibly partially masked).
        delivered: usize,
        /// Rows withheld entirely.
        withheld: usize,
        /// Did the mask grant the whole answer?
        full_access: bool,
    },
    /// An aggregate answer, rendered.
    Aggregate {
        /// The rendered aggregate outcome.
        rendered: String,
    },
    /// Authorization or execution failed.
    Error {
        /// The error message delivered to the client.
        message: String,
    },
}

/// 64-bit FNV-1a, used for compact EXPLAIN digests. Stable across
/// platforms and runs (unlike `DefaultHasher`).
pub fn fnv64(data: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct JournalInner {
    file: std::fs::File,
    bytes: u64,
    next_rotation: u64,
}

/// The append-only audit journal. All appends serialize on an internal
/// mutex; callers hold the front-end lock across the append (see module
/// docs), so the journal mutex is always acquired *after* the front-end
/// lock — a fixed order, no deadlock.
pub struct Journal {
    config: JournalConfig,
    inner: Mutex<JournalInner>,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_owned(), v);
    }
    Value::Object(m)
}

/// The journaled form of a mutation's touched-set: its rendered
/// dependencies, with `["*"]` standing for "everything".
fn touched_value(touched: &Touched) -> Value {
    Value::Array(touched.render().into_iter().map(Value::from).collect())
}

impl Journal {
    /// Open (or append to) the journal at `config.path`, writing a
    /// fresh `open` record with the given state snapshot.
    pub fn open(config: JournalConfig, state: &str, epoch: u64) -> std::io::Result<Journal> {
        let next_rotation = next_rotation_index(&config.path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&config.path)?;
        let bytes = file.metadata()?.len();
        let journal = Journal {
            config,
            inner: Mutex::new(JournalInner {
                file,
                bytes,
                next_rotation,
            }),
        };
        journal.append_open(state, epoch)?;
        Ok(journal)
    }

    /// The journal's configuration.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    fn append_open(&self, state: &str, epoch: u64) -> std::io::Result<()> {
        let record = obj(vec![
            ("t", Value::from("open")),
            ("epoch", Value::from(epoch)),
            ("state", Value::from(state)),
        ]);
        let mut inner = self.inner.lock();
        write_record(&mut inner, &record, self.config.fsync)
    }

    /// Append an administrative program's outcome. Call while holding
    /// the front-end write lock; `state` is only invoked if this append
    /// triggers rotation (the new segment needs a snapshot). Failed
    /// programs are journaled too — a program can apply a prefix of its
    /// statements before erroring, and replay must reproduce exactly
    /// that partial effect.
    pub fn append_admin(
        &self,
        epoch: u64,
        stmt: &str,
        result: &Result<Vec<String>, String>,
        touched: &Touched,
        state: impl FnOnce() -> Option<String>,
    ) {
        let mut pairs = vec![
            ("t", Value::from("admin")),
            ("epoch", Value::from(epoch)),
            ("stmt", Value::from(stmt)),
        ];
        match result {
            Ok(messages) => pairs.push((
                "messages",
                Value::Array(messages.iter().map(|m| Value::from(m.as_str())).collect()),
            )),
            Err(e) => pairs.push(("error", Value::from(e.as_str()))),
        }
        pairs.push(("touched", touched_value(touched)));
        self.append_stateful(obj(pairs), state);
    }

    /// Append a membership change (front-end write lock held).
    #[allow(clippy::too_many_arguments)]
    pub fn append_member(
        &self,
        epoch: u64,
        add: bool,
        group: &str,
        user: &str,
        message: &str,
        touched: &Touched,
        state: impl FnOnce() -> Option<String>,
    ) {
        self.append_stateful(
            obj(vec![
                ("t", Value::from("member")),
                ("epoch", Value::from(epoch)),
                ("op", Value::from(if add { "add" } else { "remove" })),
                ("group", Value::from(group)),
                ("user", Value::from(user)),
                ("message", Value::from(message)),
                ("touched", touched_value(touched)),
            ]),
            state,
        );
    }

    /// Append an `insert`/`delete` outcome (front-end write lock held).
    pub fn append_update(
        &self,
        epoch: u64,
        principal: &str,
        stmt: &str,
        result: &Result<String, String>,
        touched: &Touched,
        state: impl FnOnce() -> Option<String>,
    ) {
        let mut pairs = vec![
            ("t", Value::from("update")),
            ("epoch", Value::from(epoch)),
            ("principal", Value::from(principal)),
            ("stmt", Value::from(stmt)),
        ];
        match result {
            Ok(message) => pairs.push(("message", Value::from(message.as_str()))),
            Err(e) => pairs.push(("error", Value::from(e.as_str()))),
        }
        pairs.push(("touched", touched_value(touched)));
        self.append_stateful(obj(pairs), state);
    }

    /// Append one query's authorization outcome (front-end read lock
    /// held, so no admin can interleave between outcome and record).
    pub fn append_query(&self, record: &QueryRecord, state: impl FnOnce() -> Option<String>) {
        let mut pairs = vec![
            ("t", Value::from("query")),
            ("epoch", Value::from(record.epoch)),
            ("principal", Value::from(record.principal.as_str())),
            ("stmt", Value::from(record.stmt.as_str())),
            ("cached", Value::from(record.cached)),
        ];
        match &record.outcome {
            QueryOutcome::Rows {
                plan,
                mask,
                permits,
                delivered,
                withheld,
                full_access,
            } => {
                pairs.push(("kind", Value::from("rows")));
                pairs.push(("plan", Value::from(plan.as_str())));
                pairs.push(("mask", Value::from(mask.as_str())));
                pairs.push((
                    "permits",
                    Value::Array(permits.iter().map(|p| Value::from(p.as_str())).collect()),
                ));
                pairs.push(("delivered", Value::from(*delivered)));
                pairs.push(("withheld", Value::from(*withheld)));
                pairs.push(("full_access", Value::from(*full_access)));
            }
            QueryOutcome::Aggregate { rendered } => {
                pairs.push(("kind", Value::from("aggregate")));
                pairs.push(("rendered", Value::from(rendered.as_str())));
            }
            QueryOutcome::Error { message } => {
                pairs.push(("kind", Value::from("error")));
                pairs.push(("error", Value::from(message.as_str())));
            }
        }
        let r2_value = record.r2.as_ref().map(|counts| {
            let mut m = Map::new();
            for (label, n) in counts {
                m.insert(label.clone(), Value::from(*n));
            }
            Value::Object(m)
        });
        if let Some(r2) = r2_value {
            pairs.push(("r2", r2));
        }
        if let Some(d) = &record.explain_fnv {
            pairs.push(("explain_fnv", Value::from(d.as_str())));
        }
        if let Some(t) = &record.trace_id {
            pairs.push(("trace_id", Value::from(t.as_str())));
        }
        self.append_stateful(obj(pairs), state);
    }

    /// Write one record; rotate afterwards if the segment overflowed.
    /// Journal failures must never fail the request — they are logged
    /// and counted instead.
    fn append_stateful(&self, record: Value, state: impl FnOnce() -> Option<String>) {
        let epoch = record.get("epoch").and_then(Value::as_u64).unwrap_or(0);
        let mut inner = self.inner.lock();
        if let Err(e) = write_record(&mut inner, &record, self.config.fsync) {
            motro_obs::counter!("journal.errors").inc();
            motro_obs::log::error(
                "journal append failed",
                &[("error", e.to_string()), ("path", self.path_display())],
            );
            return;
        }
        motro_obs::counter!("journal.records").inc();
        if self.config.max_bytes > 0 && inner.bytes >= self.config.max_bytes {
            if let Err(e) = self.rotate(&mut inner, state, epoch) {
                motro_obs::counter!("journal.errors").inc();
                motro_obs::log::error(
                    "journal rotation failed",
                    &[("error", e.to_string()), ("path", self.path_display())],
                );
            }
        }
    }

    fn path_display(&self) -> String {
        self.config.path.display().to_string()
    }

    fn rotate(
        &self,
        inner: &mut JournalInner,
        state: impl FnOnce() -> Option<String>,
        epoch: u64,
    ) -> std::io::Result<()> {
        inner.file.flush()?;
        if self.config.fsync {
            inner.file.sync_all()?;
        }
        let rotated = rotation_path(&self.config.path, inner.next_rotation);
        std::fs::rename(&self.config.path, &rotated)?;
        inner.next_rotation += 1;
        inner.file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.config.path)?;
        inner.bytes = 0;
        motro_obs::counter!("journal.rotations").inc();
        // The fresh segment must stand alone: snapshot the current
        // state. A caller that cannot provide one leaves the segment
        // dependent on its predecessors (replay still works through
        // the chain).
        if let Some(state) = state() {
            let record = obj(vec![
                ("t", Value::from("open")),
                ("epoch", Value::from(epoch)),
                ("state", Value::from(state)),
            ]);
            write_record(inner, &record, self.config.fsync)?;
        }
        Ok(())
    }
}

fn write_record(inner: &mut JournalInner, record: &Value, fsync: bool) -> std::io::Result<()> {
    let line = record.to_string();
    inner.file.write_all(line.as_bytes())?;
    inner.file.write_all(b"\n")?;
    inner.file.flush()?;
    if fsync {
        inner.file.sync_all()?;
    }
    inner.bytes += line.len() as u64 + 1;
    Ok(())
}

/// `path.N` for rotated segments.
fn rotation_path(path: &Path, n: u64) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{n}"));
    PathBuf::from(name)
}

/// The next unused rotation index for `path` (scans existing `path.N`).
fn next_rotation_index(path: &Path) -> u64 {
    let mut n = 1;
    while rotation_path(path, n).exists() {
        n += 1;
    }
    n
}

/// Every journal segment for `path`, oldest first: `path.1`, `path.2`,
/// ..., then the live `path` itself (whichever exist).
pub fn segments(path: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut n = 1;
    loop {
        let p = rotation_path(path, n);
        if !p.exists() {
            break;
        }
        out.push(p);
        n += 1;
    }
    if path.exists() {
        out.push(path.to_owned());
    }
    out
}

/// The result of replaying a journal chain.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Segments replayed.
    pub segments: usize,
    /// Total records processed.
    pub records: u64,
    /// Query records re-executed and compared.
    pub queries: u64,
    /// State-changing records re-applied (admin/member/update).
    pub changes: u64,
    /// Human-readable divergences; empty means byte-identical replay.
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// Did every record reproduce exactly?
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Replay the whole journal chain rooted at `path`, re-executing every
/// journaled query against the journaled state and comparing outcomes
/// byte for byte. `exec` overrides the executor configuration (replay
/// must be identical at any worker count).
pub fn replay_all(path: &Path, exec: motro_authz::rel::ExecConfig) -> Result<ReplayReport, String> {
    let segs = segments(path);
    if segs.is_empty() {
        return Err(format!("no journal segments found at {}", path.display()));
    }
    let mut report = ReplayReport {
        segments: segs.len(),
        ..ReplayReport::default()
    };
    let mut fe: Option<Frontend> = None;
    for seg in &segs {
        replay_file(seg, &mut fe, exec, &mut report)?;
    }
    Ok(report)
}

/// Replay one segment file into `fe` (which carries across segments —
/// an `open` record resets it).
pub fn replay_file(
    path: &Path,
    fe: &mut Option<Frontend>,
    exec: motro_authz::rel::ExecConfig,
    report: &mut ReplayReport,
) -> Result<(), String> {
    let data =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    for (lineno, line) in data.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = format!("{}:{}", path.display(), lineno + 1);
        let record: Value = line
            .parse()
            .map_err(|e| format!("{at}: unparseable record: {e}"))?;
        report.records += 1;
        let t = record
            .get("t")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{at}: record without \"t\""))?;
        let epoch = record.get("epoch").and_then(Value::as_u64).unwrap_or(0);
        match t {
            "open" => {
                let state = record
                    .get("state")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{at}: open without state"))?;
                let mut f = Frontend::from_json(state).map_err(|e| format!("{at}: {e}"))?;
                f.set_exec_config(exec);
                if f.auth_epoch() != epoch {
                    report.mismatches.push(format!(
                        "{at}: open epoch {} but restored state reports {}",
                        epoch,
                        f.auth_epoch()
                    ));
                }
                *fe = Some(f);
            }
            "admin" => {
                let f = live(fe, &at)?;
                report.changes += 1;
                let stmt = field_str(&record, "stmt", &at)?;
                let want = record.get("messages").and_then(Value::as_array).map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_owned)
                        .collect::<Vec<_>>()
                });
                match (f.execute_admin_program(&stmt), want) {
                    (Ok(messages), Some(want)) => {
                        if messages != want {
                            report.mismatches.push(format!(
                                "{at}: admin messages diverge: {messages:?} vs journaled {want:?}"
                            ));
                        }
                    }
                    (Err(e), None) => {
                        let want = record.get("error").and_then(Value::as_str).unwrap_or("");
                        if e.to_string() != want {
                            report
                                .mismatches
                                .push(format!("{at}: admin error diverges: {e} vs {want}"));
                        }
                    }
                    (Ok(m), None) => report.mismatches.push(format!(
                        "{at}: admin succeeded ({m:?}) but journal records an error"
                    )),
                    (Err(e), Some(_)) => report
                        .mismatches
                        .push(format!("{at}: admin failed on replay: {e}")),
                }
                check_epoch(f, epoch, &at, report);
            }
            "member" => {
                let f = live(fe, &at)?;
                report.changes += 1;
                let group = field_str(&record, "group", &at)?;
                let user = field_str(&record, "user", &at)?;
                let add = record.get("op").and_then(Value::as_str) == Some("add");
                if add {
                    f.add_member(&group, &user);
                } else {
                    f.auth_store_mut().remove_member(&group, &user);
                }
                check_epoch(f, epoch, &at, report);
            }
            "update" => {
                let f = live(fe, &at)?;
                report.changes += 1;
                let principal = field_str(&record, "principal", &at)?;
                let stmt = field_str(&record, "stmt", &at)?;
                let got = f.execute_update(&principal, &stmt);
                match (got, record.get("message").and_then(Value::as_str)) {
                    (Ok(m), Some(want)) => {
                        if m != want {
                            report
                                .mismatches
                                .push(format!("{at}: update message diverges: {m:?} vs {want:?}"));
                        }
                    }
                    (Err(e), None) => {
                        let want = record.get("error").and_then(Value::as_str).unwrap_or("");
                        if e.to_string() != want {
                            report
                                .mismatches
                                .push(format!("{at}: update error diverges: {e} vs {want}"));
                        }
                    }
                    (Ok(m), None) => report.mismatches.push(format!(
                        "{at}: update succeeded ({m}) but journal records an error"
                    )),
                    (Err(e), Some(_)) => report
                        .mismatches
                        .push(format!("{at}: update failed on replay: {e}")),
                }
                check_epoch(f, epoch, &at, report);
            }
            "query" => {
                let f = live(fe, &at)?;
                report.queries += 1;
                replay_query(f, &record, &at, report)?;
            }
            other => return Err(format!("{at}: unknown record kind {other:?}")),
        }
    }
    Ok(())
}

fn live<'a>(fe: &'a mut Option<Frontend>, at: &str) -> Result<&'a mut Frontend, String> {
    fe.as_mut()
        .ok_or_else(|| format!("{at}: record before any open snapshot"))
}

fn field_str(record: &Value, key: &str, at: &str) -> Result<String, String> {
    record
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{at}: missing {key:?}"))
}

fn check_epoch(f: &Frontend, want: u64, at: &str, report: &mut ReplayReport) {
    if f.auth_epoch() != want {
        report.mismatches.push(format!(
            "{at}: epoch diverges: replay at {} vs journaled {}",
            f.auth_epoch(),
            want
        ));
    }
}

/// Re-execute one journaled query and compare every recorded facet.
fn replay_query(
    f: &Frontend,
    record: &Value,
    at: &str,
    report: &mut ReplayReport,
) -> Result<(), String> {
    let principal = field_str(record, "principal", at)?;
    let stmt = field_str(record, "stmt", at)?;
    let kind = record.get("kind").and_then(Value::as_str).unwrap_or("rows");
    check_epoch(
        f,
        record.get("epoch").and_then(Value::as_u64).unwrap_or(0),
        at,
        report,
    );
    match kind {
        "rows" => match replay_rows(f, &principal, &stmt) {
            Ok((plan, mask, permits, delivered, withheld, full_access)) => {
                compare_str(report, at, "plan", &plan, record);
                compare_str(report, at, "mask", &mask, record);
                let want_permits: Vec<String> = record
                    .get("permits")
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_str)
                            .map(str::to_owned)
                            .collect()
                    })
                    .unwrap_or_default();
                if permits != want_permits {
                    report.mismatches.push(format!(
                        "{at}: permits diverge: {permits:?} vs journaled {want_permits:?}"
                    ));
                }
                compare_u64(report, at, "delivered", delivered as u64, record);
                compare_u64(report, at, "withheld", withheld as u64, record);
                let want_full = record
                    .get("full_access")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                if full_access != want_full {
                    report.mismatches.push(format!(
                        "{at}: full_access diverges: {full_access} vs {want_full}"
                    ));
                }
            }
            Err(e) => {
                report
                    .mismatches
                    .push(format!("{at}: query failed on replay: {e}"));
            }
        },
        "aggregate" => match f.query(&principal, &stmt) {
            Ok(out) => compare_str(report, at, "rendered", &out.render(), record),
            Err(e) => report
                .mismatches
                .push(format!("{at}: aggregate failed on replay: {e}")),
        },
        "error" => match f.query(&principal, &stmt) {
            Ok(_) => report.mismatches.push(format!(
                "{at}: query succeeded on replay but journal records an error"
            )),
            Err(e) => compare_str(report, at, "error", &e.to_string(), record),
        },
        other => return Err(format!("{at}: unknown query kind {other:?}")),
    }
    // The EXPLAIN digest, when journaled, must reproduce too — it
    // covers the R2 decision log and per-cell attributions.
    if let Some(want) = record.get("explain_fnv").and_then(Value::as_str) {
        match f.explain_query(&principal, &stmt) {
            Ok(audit) => {
                let got = format!("{:016x}", fnv64(&audit.render()));
                if got != want {
                    report.mismatches.push(format!(
                        "{at}: explain digest diverges: {got} vs journaled {want}"
                    ));
                }
                if let Some(want_r2) = record.get("r2").and_then(Value::as_object) {
                    let got_r2 = r2_counts(&audit);
                    for (label, n) in want_r2 {
                        let got_n = got_r2
                            .iter()
                            .find(|(l, _)| l == label)
                            .map(|(_, n)| *n)
                            .unwrap_or(0);
                        if Some(got_n) != n.as_u64() {
                            report.mismatches.push(format!(
                                "{at}: R2 case {label:?} diverges: {got_n} vs journaled {n}"
                            ));
                        }
                    }
                }
            }
            Err(e) => report
                .mismatches
                .push(format!("{at}: explain failed on replay: {e}")),
        }
    }
    Ok(())
}

/// What [`replay_rows`] reproduces for one journaled row query:
/// `(plan, mask, permits, delivered, withheld, full_access)`.
type ReplayedRows = (String, String, Vec<String>, usize, usize, bool);

/// Row-level replay: reproduce the plan, mask, permits, and counts the
/// way the server computed them.
fn replay_rows(
    f: &Frontend,
    principal: &str,
    stmt: &str,
) -> Result<ReplayedRows, motro_authz::FrontendError> {
    let out = match f.query(principal, stmt)? {
        motro_authz::RetrieveOutcome::Rows(out) => out,
        motro_authz::RetrieveOutcome::Aggregate(_) => {
            return Err(motro_authz::FrontendError::Unexpected(
                "aggregate outcome for a journaled rows query".to_owned(),
            ))
        }
    };
    let plan = canonical_plan(f, stmt)?;
    Ok((
        plan,
        out.mask.canonical_render(),
        out.permits.iter().map(|p| p.to_string()).collect(),
        out.masked.rows.len(),
        out.masked.withheld,
        out.full_access,
    ))
}

/// The canonical plan rendering the server journals for a row query.
pub fn canonical_plan(f: &Frontend, stmt: &str) -> Result<String, motro_authz::FrontendError> {
    match motro_authz::lang::parse_statement(stmt)? {
        motro_authz::lang::Statement::Retrieve(q) => {
            Ok(motro_authz::views::compile(&q, f.database().schema())?.to_string())
        }
        _ => Err(motro_authz::FrontendError::Unexpected(
            "expected a retrieve statement".to_owned(),
        )),
    }
}

/// Flatten an audit's R2 decision log into per-case counts.
pub fn r2_counts(audit: &motro_authz::core::AuthExplain) -> Vec<(String, u64)> {
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for step in &audit.steps {
        for d in &step.decisions {
            *counts.entry(d.case.label()).or_insert(0) += 1;
        }
    }
    counts.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

fn compare_str(report: &mut ReplayReport, at: &str, key: &str, got: &str, record: &Value) {
    let want = record.get(key).and_then(Value::as_str).unwrap_or("");
    if got != want {
        report.mismatches.push(format!(
            "{at}: {key} diverges:\n  replay:   {got}\n  journaled: {want}"
        ));
    }
}

fn compare_u64(report: &mut ReplayReport, at: &str, key: &str, got: u64, record: &Value) {
    let want = record.get(key).and_then(Value::as_u64).unwrap_or(0);
    if got != want {
        report
            .mismatches
            .push(format!("{at}: {key} diverges: {got} vs journaled {want}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motro_authz::core::fixtures;

    fn frontend() -> Frontend {
        let mut fe = Frontend::with_database(fixtures::paper_database());
        fe.execute_admin_program(
            "view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
               where PROJECT.SPONSOR = Acme;
             permit PSA to Brown",
        )
        .unwrap();
        fe
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("motro-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("audit.jsonl")
    }

    fn query_record(fe: &Frontend, principal: &str, stmt: &str) -> QueryRecord {
        let out = match fe.query(principal, stmt).unwrap() {
            motro_authz::RetrieveOutcome::Rows(out) => out,
            motro_authz::RetrieveOutcome::Aggregate(_) => panic!("row query expected"),
        };
        let plan = canonical_plan(fe, stmt).unwrap();
        QueryRecord {
            principal: principal.to_owned(),
            stmt: stmt.to_owned(),
            outcome: QueryOutcome::Rows {
                plan,
                mask: out.mask.canonical_render(),
                permits: out.permits.iter().map(|p| p.to_string()).collect(),
                delivered: out.masked.rows.len(),
                withheld: out.masked.withheld,
                full_access: out.full_access,
            },
            epoch: fe.auth_epoch(),
            cached: false,
            r2: None,
            explain_fnv: None,
            trace_id: None,
        }
    }

    #[test]
    fn round_trip_replays_byte_identically() {
        let path = tmp("round");
        let mut fe = frontend();
        let journal = Journal::open(
            JournalConfig::new(&path),
            &fe.to_json().unwrap(),
            fe.auth_epoch(),
        )
        .unwrap();
        let stmt = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";
        journal.append_query(&query_record(&fe, "Brown", stmt), || None);
        let messages = fe.execute_admin_program("permit PSA to Klein").unwrap();
        let touched = fe.take_touched();
        journal.append_admin(
            fe.auth_epoch(),
            "permit PSA to Klein",
            &Ok(messages),
            &touched,
            || None,
        );
        journal.append_query(&query_record(&fe, "Klein", stmt), || None);
        drop(journal);

        let report = replay_all(&path, motro_authz::rel::ExecConfig::sequential()).unwrap();
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.queries, 2);
        assert_eq!(report.changes, 1);
    }

    /// The same round trip with the `open` records stripped and the
    /// state pre-seeded: the comparison logic does not depend on the
    /// snapshot.
    #[test]
    fn replay_comparisons_work_with_preseeded_state() {
        let path = tmp("preseed");
        let mut fe = frontend();
        let journal = Journal::open(JournalConfig::new(&path), "ignored", fe.auth_epoch()).unwrap();
        let stmt = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";
        journal.append_query(&query_record(&fe, "Brown", stmt), || None);
        let messages = fe.execute_admin_program("permit PSA to Klein").unwrap();
        let touched = fe.take_touched();
        journal.append_admin(
            fe.auth_epoch(),
            "permit PSA to Klein",
            &Ok(messages),
            &touched,
            || None,
        );
        journal.append_query(&query_record(&fe, "Klein", stmt), || None);
        drop(journal);

        let data = std::fs::read_to_string(&path).unwrap();
        let stripped: String = data
            .lines()
            .filter(|l| !l.contains("\"t\":\"open\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let no_open = path.with_extension("noopen.jsonl");
        std::fs::write(&no_open, stripped).unwrap();

        let mut state = Some({
            let mut f = frontend();
            f.set_exec_config(motro_authz::rel::ExecConfig::sequential());
            f
        });
        let mut report = ReplayReport::default();
        replay_file(
            &no_open,
            &mut state,
            motro_authz::rel::ExecConfig::sequential(),
            &mut report,
        )
        .unwrap();
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.queries, 2);
        assert_eq!(report.changes, 1);
    }

    #[test]
    fn tampered_mask_is_detected() {
        let path = tmp("tamper");
        let fe = frontend();
        let journal = Journal::open(
            JournalConfig::new(&path),
            &fe.to_json().unwrap(),
            fe.auth_epoch(),
        )
        .unwrap();
        let mut rec = query_record(&fe, "Brown", "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)");
        if let QueryOutcome::Rows { mask, .. } = &mut rec.outcome {
            mask.push_str("\n[FORGED] (*, *)");
        }
        journal.append_query(&rec, || None);
        drop(journal);
        let report = replay_all(&path, motro_authz::rel::ExecConfig::sequential()).unwrap();
        assert!(!report.ok(), "a forged mask must not replay clean");
        assert!(report.mismatches[0].contains("mask diverges"));
    }

    #[test]
    fn rotation_produces_self_contained_segments() {
        let path = tmp("rotate");
        let fe = frontend();
        let config = JournalConfig {
            max_bytes: 1, // rotate after every record
            ..JournalConfig::new(&path)
        };
        let journal = Journal::open(config, &fe.to_json().unwrap(), fe.auth_epoch()).unwrap();
        let stmt = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";
        for _ in 0..3 {
            journal.append_query(&query_record(&fe, "Brown", stmt), || fe.to_json().ok());
        }
        drop(journal);
        let segs = segments(&path);
        assert!(segs.len() >= 3, "rotation must produce segments: {segs:?}");
        let report = replay_all(&path, motro_authz::rel::ExecConfig::sequential()).unwrap();
        assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
        assert_eq!(report.queries, 3);

        // Each rotated segment after the first opens with a snapshot, so
        // the *last* segment replays standalone.
        let mut solo = ReplayReport::default();
        let mut f = None;
        replay_file(
            segs.last().unwrap(),
            &mut f,
            motro_authz::rel::ExecConfig::sequential(),
            &mut solo,
        )
        .unwrap();
        assert!(solo.ok(), "mismatches: {:#?}", solo.mismatches);
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), fnv64("a"));
        assert_ne!(fnv64("a"), fnv64("b"));
    }
}
