//! Fleet-wide authorization analytics: bounded per-(principal, views,
//! relations) rollups of mask outcomes and R2 decision splits, an
//! epoch-tagged policy-drift log, and an alert-rule engine evaluated on
//! window roll.
//!
//! Motro's model makes every delivered, masked, or withheld cell
//! attributable: the mask is a pure function of the user's grants and
//! the canonical plan, and each surviving meta-tuple carries the view
//! provenance that produced it. This module aggregates those
//! attributions across requests so an operator can ask *which views are
//! denying whom*, *where masking concentrates*, and *what the last
//! grant actually changed*:
//!
//! * [`Insight::record`] folds one request's [`Event`] — principal,
//!   granting views, relation footprint, cell deliver/mask/withhold
//!   counts, and the R2 `[clear, retain, modify, discard,
//!   clear_fallback]` split — into a bounded rollup table (hard cap
//!   [`MAX_ROLLUPS`], overflow pooled under [`OTHER`]) and bumps the
//!   `insight.*` registry counters, which the §6d window layer then
//!   windows and `/metrics` exports as `motro_insight_*` series.
//!   Rollups also carry each request's wall time and allocation bytes,
//!   so [`Insight::top`] — a principal's rollups summed — is the one
//!   per-principal cost table (`/debug/top`, `motro_user_cost_*`).
//! * [`Insight::record_drift`] appends an [`EpochDelta`] — the (user,
//!   view) visibility pairs a mutation gained or lost, tagged with the
//!   auth epoch it produced — to a bounded ring. The server computes
//!   the delta by diffing `permitted_views` around each mutation.
//! * [`Insight::evaluate_alerts`] runs the configured [`AlertRule`]s
//!   (threshold and window-over-window burn-rate expressions over
//!   window counter deltas) whenever the window layer has completed a
//!   new window, emitting fired [`Alert`]s to the structured log sink
//!   and a bounded ring.
//!
//! Everything is hand-rolled JSON (this crate is dependency-free) and
//! bounded: rollup keys, drift entries, alert history, and denial
//! reasons all have hard caps, so the aggregator can stay always-on.

use crate::window::{WindowLayer, WindowSnapshot};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::OnceLock;

/// Distinct (principal, views, relations) rollup keys tracked before
/// new combinations pool into the [`OTHER`] bucket.
pub const MAX_ROLLUPS: usize = 512;

/// The pooled bucket label used past a cardinality cap.
pub const OTHER: &str = "(other)";

/// Distinct denial reasons tracked per rollup before pooling.
pub const MAX_REASONS: usize = 8;

/// Epoch-tagged drift entries retained.
pub const MAX_DRIFT: usize = 64;

/// Fired alerts retained in the ring.
pub const MAX_ALERTS: usize = 128;

// ---------------------------------------------------------------------
// Events and rollups
// ---------------------------------------------------------------------

/// One request's authorization outcome, as the server observed it.
/// Borrows from the server's request record, so folding it allocates
/// only the rollup key.
#[derive(Debug, Clone, Copy, Default)]
pub struct Event<'a> {
    /// The requesting principal.
    pub principal: &'a str,
    /// Views whose meta-tuples the mask was built from (sorted,
    /// deduplicated). Empty when the mask was empty or on error.
    pub views: &'a [String],
    /// Relations the canonical plan referenced.
    pub relations: &'a [String],
    /// Answered from the mask cache?
    pub cached: bool,
    /// Mask granted the entire answer?
    pub full_access: bool,
    /// Error/denial code when the request failed (`denied`,
    /// `bad_statement`, ...); `None` for a delivered answer.
    pub denied: Option<&'a str>,
    /// Rows delivered to the user.
    pub rows_delivered: u64,
    /// Rows withheld entirely.
    pub rows_withheld: u64,
    /// Cells delivered (non-null cells of delivered rows).
    pub cells_delivered: u64,
    /// Cells masked to null within delivered rows.
    pub cells_masked: u64,
    /// Cells suppressed with their rows (withheld rows × arity).
    pub cells_withheld: u64,
    /// R2 decision split `[clear, retain, modify, discard,
    /// clear_fallback]` for this request's meta-selections (zero on
    /// cache hits replayed without re-evaluation unless the cache
    /// stored the original split).
    pub r2: [u64; 5],
    /// The request's duration in nanoseconds.
    pub wall_ns: u64,
    /// Allocation bytes of the request's profile root (0 when no
    /// profile session ran or counting was off).
    pub alloc_bytes: u64,
}

/// Cumulative outcome totals for one (principal, views, relations)
/// combination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Requests folded in.
    pub requests: u64,
    /// Requests that failed (see [`Rollup::denials`] for the reasons).
    pub errors: u64,
    /// Requests answered from the mask cache.
    pub cached: u64,
    /// Requests where the mask granted the entire answer.
    pub full_access: u64,
    /// Summed request wall time in nanoseconds.
    pub wall_ns: u64,
    /// Summed allocation bytes.
    pub alloc_bytes: u64,
    /// Rows delivered.
    pub rows_delivered: u64,
    /// Rows withheld.
    pub rows_withheld: u64,
    /// Cells delivered.
    pub cells_delivered: u64,
    /// Cells masked within delivered rows.
    pub cells_masked: u64,
    /// Cells suppressed with withheld rows.
    pub cells_withheld: u64,
    /// Summed R2 splits.
    pub r2: [u64; 5],
    /// Denial reasons → occurrences (bounded by [`MAX_REASONS`]).
    pub denials: BTreeMap<String, u64>,
}

impl Rollup {
    fn absorb(&mut self, ev: &Event) {
        self.requests += 1;
        self.cached += ev.cached as u64;
        self.full_access += ev.full_access as u64;
        self.wall_ns += ev.wall_ns;
        self.alloc_bytes += ev.alloc_bytes;
        self.rows_delivered += ev.rows_delivered;
        self.rows_withheld += ev.rows_withheld;
        self.cells_delivered += ev.cells_delivered;
        self.cells_masked += ev.cells_masked;
        self.cells_withheld += ev.cells_withheld;
        for (acc, d) in self.r2.iter_mut().zip(&ev.r2) {
            *acc += d;
        }
        if let Some(reason) = ev.denied {
            self.errors += 1;
            if !self.denials.contains_key(reason) && self.denials.len() >= MAX_REASONS {
                *self.denials.entry(OTHER.to_owned()).or_insert(0) += 1;
            } else {
                *self.denials.entry(reason.to_owned()).or_insert(0) += 1;
            }
        }
    }

    /// Add another rollup's totals into this one.
    fn merge(&mut self, o: &Rollup) {
        self.requests += o.requests;
        self.errors += o.errors;
        self.cached += o.cached;
        self.full_access += o.full_access;
        self.wall_ns += o.wall_ns;
        self.alloc_bytes += o.alloc_bytes;
        self.rows_delivered += o.rows_delivered;
        self.rows_withheld += o.rows_withheld;
        self.cells_delivered += o.cells_delivered;
        self.cells_masked += o.cells_masked;
        self.cells_withheld += o.cells_withheld;
        for (acc, d) in self.r2.iter_mut().zip(&o.r2) {
            *acc += d;
        }
        for (reason, n) in &o.denials {
            *self.denials.entry(reason.clone()).or_insert(0) += n;
        }
    }
}

/// One cost column: its name and how to read it off a summed rollup.
pub type CostColumn = (&'static str, fn(&Rollup) -> u64);

/// The cost columns of the per-principal table ([`Insight::top`]), as
/// `/debug/top` fields and `motro_user_cost_*` series: masked cells
/// count nulled cells plus withheld-row area, cache hits the cached
/// requests.
pub const COST_COLUMNS: [CostColumn; 5] = [
    ("requests", |r| r.requests),
    ("wall_ns", |r| r.wall_ns),
    ("alloc_bytes", |r| r.alloc_bytes),
    ("cells_masked", |r| r.cells_masked + r.cells_withheld),
    ("cache_hits", |r| r.cached),
];

/// A rollup key: the principal, the granting views (sorted,
/// `+`-joined, `(none)` when the mask was empty), and the plan's
/// relation footprint (`+`-joined).
pub type RollupKey = (String, String, String);

fn joined(parts: &[String], empty: &str) -> String {
    if parts.is_empty() {
        return empty.to_owned();
    }
    let mut sorted: Vec<&str> = parts.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.join("+")
}

// ---------------------------------------------------------------------
// Policy drift
// ---------------------------------------------------------------------

/// One (user, view) visibility change a mutation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftChange {
    /// The affected user.
    pub user: String,
    /// The view whose visibility changed for that user.
    pub view: String,
    /// `true` if the user gained the view, `false` if they lost it.
    pub gained: bool,
}

/// The visibility delta one auth-epoch bump produced: which (user,
/// view) pairs a grant/revoke/group mutation exposed or hid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDelta {
    /// The auth epoch *after* the mutation.
    pub epoch: u64,
    /// The mutating statement, as received.
    pub stmt: String,
    /// The (user, view) pairs whose visibility changed.
    pub changes: Vec<DriftChange>,
    /// Wall-clock milliseconds since the Unix epoch when recorded.
    pub unix_ms: u64,
}

impl EpochDelta {
    fn to_json(&self) -> String {
        let mut out = String::from("{\"epoch\":");
        out.push_str(&self.epoch.to_string());
        out.push_str(",\"unix_ms\":");
        out.push_str(&self.unix_ms.to_string());
        out.push_str(",\"stmt\":\"");
        out.push_str(&crate::json_escape(&self.stmt));
        out.push_str("\",\"gained\":[");
        render_pairs(&mut out, &self.changes, true);
        out.push_str("],\"lost\":[");
        render_pairs(&mut out, &self.changes, false);
        out.push_str("]}");
        out
    }

    /// Human-readable "grant/revoke X changed visibility" line.
    pub fn render(&self) -> String {
        let gained: Vec<String> = self
            .changes
            .iter()
            .filter(|c| c.gained)
            .map(|c| format!("({}, {})", c.user, c.view))
            .collect();
        let lost: Vec<String> = self
            .changes
            .iter()
            .filter(|c| !c.gained)
            .map(|c| format!("({}, {})", c.user, c.view))
            .collect();
        let mut out = format!("epoch {}: `{}`", self.epoch, self.stmt);
        if gained.is_empty() && lost.is_empty() {
            out.push_str(" changed no (user, view) visibility");
            return out;
        }
        if !gained.is_empty() {
            out.push_str(&format!(" gained {}", gained.join(", ")));
        }
        if !lost.is_empty() {
            if !gained.is_empty() {
                out.push(';');
            }
            out.push_str(&format!(" lost {}", lost.join(", ")));
        }
        out
    }
}

fn render_pairs(out: &mut String, changes: &[DriftChange], gained: bool) {
    let mut first = true;
    for c in changes.iter().filter(|c| c.gained == gained) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"user\":\"");
        out.push_str(&crate::json_escape(&c.user));
        out.push_str("\",\"view\":\"");
        out.push_str(&crate::json_escape(&c.view));
        out.push_str("\"}");
    }
}

// ---------------------------------------------------------------------
// Alert rules
// ---------------------------------------------------------------------

/// A comparison operator in an alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl Cmp {
    fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// An alert expression evaluated over completed windows.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `delta(counter)` — the counter's increment in the newest window.
    Delta(String),
    /// `rate(counter)` — the increment per second in the newest window.
    Rate(String),
    /// `ratio(a, b)` — `delta(a) / delta(b)` in the newest window
    /// (0 when `b` did not move).
    Ratio(String, String),
    /// `jump(inner)` — window-over-window burn rate: the inner
    /// expression's value in the newest window divided by its value in
    /// the previous one. Skipped (never fires) without two completed
    /// windows or when the previous value is 0.
    Jump(Box<Expr>),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Delta(c) => write!(f, "delta({c})"),
            Expr::Rate(c) => write!(f, "rate({c})"),
            Expr::Ratio(a, b) => write!(f, "ratio({a}, {b})"),
            Expr::Jump(inner) => write!(f, "jump({inner})"),
        }
    }
}

impl Expr {
    /// Evaluate over one window; `None` only for ill-formed input.
    fn eval(&self, w: &WindowSnapshot) -> f64 {
        match self {
            Expr::Delta(c) => w.counters.get(c).copied().unwrap_or(0) as f64,
            Expr::Rate(c) => {
                let secs = w.duration.as_secs_f64();
                if secs <= 0.0 {
                    0.0
                } else {
                    w.counters.get(c).copied().unwrap_or(0) as f64 / secs
                }
            }
            Expr::Ratio(a, b) => {
                let num = w.counters.get(a).copied().unwrap_or(0) as f64;
                let den = w.counters.get(b).copied().unwrap_or(0) as f64;
                if den <= 0.0 {
                    0.0
                } else {
                    num / den
                }
            }
            Expr::Jump(_) => unreachable!("jump is evaluated across windows"),
        }
    }
}

/// One alert rule: `name: expr cmp value [min m]`.
///
/// Grammar (whitespace-insensitive around tokens):
///
/// ```text
/// rule  := NAME ':' expr CMP NUMBER [ 'min' NUMBER ]
/// expr  := 'delta(' COUNTER ')'
///        | 'rate(' COUNTER ')'
///        | 'ratio(' COUNTER ',' COUNTER ')'
///        | 'jump(' expr ')'            -- inner: delta | rate | ratio
/// CMP   := '>' | '>=' | '<' | '<='
/// ```
///
/// `min m` suppresses the rule unless the *current-window* value of the
/// (inner, for `jump`) expression is at least `m` — the guard that
/// keeps a 1→2 denial "spike" from paging anyone.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// The rule's name, reported with every fired alert.
    pub name: String,
    /// The evaluated expression.
    pub expr: Expr,
    /// The comparison applied to the expression's value.
    pub cmp: Cmp,
    /// The threshold compared against.
    pub value: f64,
    /// Minimum current-window value for the rule to fire.
    pub min: f64,
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {} {}",
            self.name,
            self.expr,
            self.cmp.as_str(),
            self.value
        )?;
        if self.min > 0.0 {
            write!(f, " min {}", self.min)?;
        }
        Ok(())
    }
}

impl AlertRule {
    /// Parse one rule from the textual grammar.
    pub fn parse(s: &str) -> Result<AlertRule, String> {
        let (name, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("rule `{s}`: missing `name:` prefix"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("rule `{s}`: empty name"));
        }
        let rest = rest.trim();
        let (expr, rest) = parse_expr(rest)?;
        let rest = rest.trim_start();
        let (cmp, rest) = if let Some(r) = rest.strip_prefix(">=") {
            (Cmp::Ge, r)
        } else if let Some(r) = rest.strip_prefix("<=") {
            (Cmp::Le, r)
        } else if let Some(r) = rest.strip_prefix('>') {
            (Cmp::Gt, r)
        } else if let Some(r) = rest.strip_prefix('<') {
            (Cmp::Lt, r)
        } else {
            return Err(format!("rule `{s}`: expected comparison, found `{rest}`"));
        };
        let rest = rest.trim();
        let (value_str, min_str) = match rest.split_once("min") {
            Some((v, m)) => (v.trim(), Some(m.trim())),
            None => (rest, None),
        };
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("rule `{s}`: bad threshold `{value_str}`"))?;
        let min: f64 = match min_str {
            Some(m) => m
                .parse()
                .map_err(|_| format!("rule `{s}`: bad min `{m}`"))?,
            None => 0.0,
        };
        Ok(AlertRule {
            name: name.to_owned(),
            expr,
            cmp,
            value,
            min,
        })
    }

    /// The built-in rule set: denial spike, mask-fraction jump, any
    /// epoch fallback, and cache-retention drop.
    pub fn defaults() -> Vec<AlertRule> {
        [
            "denial-spike: jump(delta(insight.errors)) >= 2 min 5",
            "mask-fraction-jump: jump(ratio(insight.cells.suppressed, insight.cells.seen)) \
             >= 1.5 min 0.2",
            "epoch-fallback: delta(server.cache.epoch_fallbacks) > 0",
            "cache-retention-drop: jump(ratio(insight.requests.cached, insight.requests)) <= 0.5",
        ]
        .iter()
        .map(|s| AlertRule::parse(s).expect("default rules parse"))
        .collect()
    }

    /// Evaluate against the newest window (`current`) and, for `jump`,
    /// the one before it. Returns the observed value when fired.
    fn fire_value(
        &self,
        current: &WindowSnapshot,
        previous: Option<&WindowSnapshot>,
    ) -> Option<f64> {
        let (observed, guard) = match &self.expr {
            Expr::Jump(inner) => {
                let prev = previous?;
                let cur = inner.eval(current);
                let before = inner.eval(prev);
                if before <= 0.0 {
                    return None;
                }
                (cur / before, cur)
            }
            expr => {
                let v = expr.eval(current);
                (v, v)
            }
        };
        if guard < self.min {
            return None;
        }
        if self.cmp.holds(observed, self.value) {
            Some(observed)
        } else {
            None
        }
    }
}

fn parse_expr(s: &str) -> Result<(Expr, &str), String> {
    let s = s.trim_start();
    let (head, rest) = match s.find('(') {
        Some(i) => (s[..i].trim(), &s[i + 1..]),
        None => return Err(format!("expression `{s}`: expected `fn(...)`")),
    };
    match head {
        "jump" => {
            let (inner, rest) = parse_expr(rest)?;
            let rest = rest.trim_start();
            let rest = rest
                .strip_prefix(')')
                .ok_or_else(|| format!("jump: missing `)` before `{rest}`"))?;
            if matches!(inner, Expr::Jump(_)) {
                return Err("jump(jump(..)) is not allowed".to_owned());
            }
            Ok((Expr::Jump(Box::new(inner)), rest))
        }
        "delta" | "rate" => {
            let i = rest
                .find(')')
                .ok_or_else(|| format!("{head}: missing `)` in `{rest}`"))?;
            let counter = rest[..i].trim().to_owned();
            if counter.is_empty() {
                return Err(format!("{head}: empty counter name"));
            }
            let expr = if head == "delta" {
                Expr::Delta(counter)
            } else {
                Expr::Rate(counter)
            };
            Ok((expr, &rest[i + 1..]))
        }
        "ratio" => {
            let i = rest
                .find(')')
                .ok_or_else(|| format!("ratio: missing `)` in `{rest}`"))?;
            let inner = &rest[..i];
            let (a, b) = inner
                .split_once(',')
                .ok_or_else(|| format!("ratio: expected two counters in `{inner}`"))?;
            let (a, b) = (a.trim().to_owned(), b.trim().to_owned());
            if a.is_empty() || b.is_empty() {
                return Err("ratio: empty counter name".to_owned());
            }
            Ok((Expr::Ratio(a, b), &rest[i + 1..]))
        }
        other => Err(format!("unknown alert function `{other}`")),
    }
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The firing rule's name.
    pub rule: String,
    /// The rule rendered back to its grammar.
    pub expr: String,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The threshold.
    pub threshold: f64,
    /// The window-roll ordinal the alert fired on.
    pub roll: u64,
    /// Wall-clock milliseconds since the Unix epoch when fired.
    pub unix_ms: u64,
}

impl Alert {
    fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"expr\":\"{}\",\"value\":{:.4},\"threshold\":{},\"roll\":{},\"unix_ms\":{}}}",
            crate::json_escape(&self.rule),
            crate::json_escape(&self.expr),
            self.value,
            self.threshold,
            self.roll,
            self.unix_ms
        )
    }
}

// ---------------------------------------------------------------------
// The aggregator
// ---------------------------------------------------------------------

#[derive(Default)]
struct AlertState {
    rules: Vec<AlertRule>,
    seen_rolls: u64,
    fired: VecDeque<Alert>,
    total_fired: u64,
}

/// The insight aggregator: rollups + drift log + alert engine. Use the
/// process-wide [`global`] instance; tests construct their own.
pub struct Insight {
    rollups: Mutex<BTreeMap<RollupKey, Rollup>>,
    drift: Mutex<VecDeque<EpochDelta>>,
    alerts: Mutex<AlertState>,
}

impl Default for Insight {
    fn default() -> Self {
        Insight::new()
    }
}

impl Insight {
    /// A fresh aggregator with the default alert rules.
    pub fn new() -> Self {
        Insight {
            rollups: Mutex::new(BTreeMap::new()),
            drift: Mutex::new(VecDeque::new()),
            alerts: Mutex::new(AlertState {
                rules: AlertRule::defaults(),
                ..AlertState::default()
            }),
        }
    }

    /// Fold one request's outcome into the rollups and bump the
    /// `insight.*` registry counters (which the window layer windows
    /// and `/metrics` exports as `motro_insight_*`). No-op while
    /// recording is globally disabled.
    pub fn record(&self, ev: &Event) {
        if !crate::enabled() {
            return;
        }
        crate::counter!("insight.requests").inc();
        if ev.cached {
            crate::counter!("insight.requests.cached").inc();
        }
        if ev.full_access {
            crate::counter!("insight.requests.full_access").inc();
        }
        if ev.denied.is_some() {
            crate::counter!("insight.errors").inc();
        }
        crate::counter!("insight.rows.delivered").add(ev.rows_delivered);
        crate::counter!("insight.rows.withheld").add(ev.rows_withheld);
        crate::counter!("insight.cells.delivered").add(ev.cells_delivered);
        crate::counter!("insight.cells.masked").add(ev.cells_masked);
        crate::counter!("insight.cells.withheld").add(ev.cells_withheld);
        crate::counter!("insight.cells.suppressed").add(ev.cells_masked + ev.cells_withheld);
        crate::counter!("insight.cells.seen")
            .add(ev.cells_delivered + ev.cells_masked + ev.cells_withheld);
        crate::counter!("insight.r2.clear").add(ev.r2[0]);
        crate::counter!("insight.r2.retain").add(ev.r2[1]);
        crate::counter!("insight.r2.modify").add(ev.r2[2]);
        crate::counter!("insight.r2.discard").add(ev.r2[3]);
        crate::counter!("insight.r2.clear_fallback").add(ev.r2[4]);

        let key: RollupKey = (
            ev.principal.to_owned(),
            joined(ev.views, "(none)"),
            joined(ev.relations, "(none)"),
        );
        let mut rollups = self.rollups.lock();
        if !rollups.contains_key(&key) && rollups.len() >= MAX_ROLLUPS {
            let pooled: RollupKey = (OTHER.to_owned(), OTHER.to_owned(), OTHER.to_owned());
            rollups.entry(pooled).or_default().absorb(ev);
            return;
        }
        rollups.entry(key).or_default().absorb(ev);
    }

    /// The rollup table, sorted by key.
    pub fn rollups(&self) -> Vec<(RollupKey, Rollup)> {
        self.rollups
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Each principal's rollups summed, keyed by principal.
    fn principals(&self) -> BTreeMap<String, Rollup> {
        let mut out: BTreeMap<String, Rollup> = BTreeMap::new();
        for ((principal, _, _), r) in self.rollups.lock().iter() {
            out.entry(principal.clone()).or_default().merge(r);
        }
        out
    }

    /// The per-principal table: the `n` costliest principals' summed
    /// rollups by `wall_ns`, descending (ties broken by name). `n == 0`
    /// returns everyone. At most [`MAX_ROLLUPS`] principals plus
    /// [`OTHER`], since each holds at least one rollup key.
    pub fn top(&self, n: usize) -> Vec<(String, Rollup)> {
        let mut rows: Vec<(String, Rollup)> = self.principals().into_iter().collect();
        rows.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then(a.0.cmp(&b.0)));
        if n > 0 {
            rows.truncate(n);
        }
        rows
    }

    /// Render the per-principal table as `motro_user_cost_*` counter
    /// series ([`COST_COLUMNS`]) with a `user` label. Empty while the
    /// table is, so the exposition stays byte-identical.
    pub fn prometheus(&self) -> String {
        let users = self.principals();
        let mut out = String::new();
        if users.is_empty() {
            return out;
        }
        for (name, get) in COST_COLUMNS {
            out.push_str(&format!("# TYPE motro_user_cost_{name} counter\n"));
            for (user, r) in &users {
                let user = crate::prom::escape_label_value(user);
                out.push_str(&format!(
                    "motro_user_cost_{name}{{user=\"{user}\"}} {}\n",
                    get(r)
                ));
            }
        }
        out
    }

    /// Number of tracked rollup keys.
    pub fn len(&self) -> usize {
        self.rollups.lock().len()
    }

    /// Is the rollup table empty?
    pub fn is_empty(&self) -> bool {
        self.rollups.lock().is_empty()
    }

    /// Append one epoch's drift delta (bounded ring, newest retained).
    pub fn record_drift(&self, delta: EpochDelta) {
        if !crate::enabled() {
            return;
        }
        crate::counter!("insight.drift.epochs").inc();
        crate::counter!("insight.drift.changes").add(delta.changes.len() as u64);
        let mut drift = self.drift.lock();
        drift.push_back(delta);
        while drift.len() > MAX_DRIFT {
            drift.pop_front();
        }
    }

    /// The retained drift deltas, newest first, at most `limit`
    /// (`0` = all retained).
    pub fn drift(&self, limit: usize) -> Vec<EpochDelta> {
        let drift = self.drift.lock();
        let take = if limit == 0 { drift.len() } else { limit };
        drift.iter().rev().take(take).cloned().collect()
    }

    /// Replace the alert rule set (e.g. from `--alert-rule` flags).
    pub fn set_rules(&self, rules: Vec<AlertRule>) {
        self.alerts.lock().rules = rules;
    }

    /// The active alert rules, rendered back to their grammar.
    pub fn rules(&self) -> Vec<String> {
        self.alerts
            .lock()
            .rules
            .iter()
            .map(|r| r.to_string())
            .collect()
    }

    /// Evaluate the alert rules if `layer` has completed new windows
    /// since the last evaluation. Each newly fired alert lands in the
    /// bounded ring, bumps `insight.alerts.fired`, and is emitted to
    /// the structured log sink at WARN. Returns the alerts fired by
    /// *this* call.
    pub fn evaluate_alerts(&self, layer: &WindowLayer) -> Vec<Alert> {
        let rolls = layer.rolls();
        let mut state = self.alerts.lock();
        if rolls == state.seen_rolls {
            return Vec::new();
        }
        state.seen_rolls = rolls;
        let windows = layer.windows();
        let current = match windows.last() {
            Some(w) => w,
            None => return Vec::new(),
        };
        let previous = windows.len().checked_sub(2).map(|i| &windows[i]);
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut fired = Vec::new();
        for rule in &state.rules {
            if let Some(value) = rule.fire_value(current, previous) {
                let alert = Alert {
                    rule: rule.name.clone(),
                    expr: rule.to_string(),
                    value,
                    threshold: rule.value,
                    roll: rolls,
                    unix_ms,
                };
                crate::counter!("insight.alerts.fired").inc();
                crate::log::warn(
                    "alert fired",
                    &[
                        ("rule", rule.name.clone()),
                        ("expr", rule.to_string()),
                        ("value", format!("{value:.4}")),
                        ("roll", rolls.to_string()),
                    ],
                );
                fired.push(alert);
            }
        }
        for a in &fired {
            state.fired.push_back(a.clone());
            state.total_fired += 1;
        }
        while state.fired.len() > MAX_ALERTS {
            state.fired.pop_front();
        }
        fired
    }

    /// Recently fired alerts, newest first, at most `limit` (`0` = all
    /// retained).
    pub fn alerts(&self, limit: usize) -> Vec<Alert> {
        let state = self.alerts.lock();
        let take = if limit == 0 { state.fired.len() } else { limit };
        state.fired.iter().rev().take(take).cloned().collect()
    }

    /// Total alerts ever fired (not capped by the ring).
    pub fn alerts_fired(&self) -> u64 {
        self.alerts.lock().total_fired
    }

    /// Drop all rollups, drift entries, and alert history (tests).
    pub fn reset(&self) {
        self.rollups.lock().clear();
        self.drift.lock().clear();
        let mut state = self.alerts.lock();
        state.fired.clear();
        state.total_fired = 0;
        state.seen_rolls = 0;
    }

    /// Render the rollup table as a JSON array, sorted by key.
    pub fn rollups_json(&self) -> String {
        let rollups = self.rollups.lock();
        let mut out = String::from("[");
        let mut first = true;
        for ((principal, views, relations), r) in rollups.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"principal\":\"");
            out.push_str(&crate::json_escape(principal));
            out.push_str("\",\"views\":\"");
            out.push_str(&crate::json_escape(views));
            out.push_str("\",\"relations\":\"");
            out.push_str(&crate::json_escape(relations));
            out.push_str(&format!(
                "\",\"requests\":{},\"errors\":{},\"cached\":{},\"full_access\":{},\
                 \"wall_ns\":{},\"alloc_bytes\":{},\"rows_delivered\":{},\"rows_withheld\":{},\
                 \"cells_delivered\":{},\
                 \"cells_masked\":{},\"cells_withheld\":{},\"r2\":{{\"clear\":{},\
                 \"retain\":{},\"modify\":{},\"discard\":{},\"clear_fallback\":{}}}",
                r.requests,
                r.errors,
                r.cached,
                r.full_access,
                r.wall_ns,
                r.alloc_bytes,
                r.rows_delivered,
                r.rows_withheld,
                r.cells_delivered,
                r.cells_masked,
                r.cells_withheld,
                r.r2[0],
                r.r2[1],
                r.r2[2],
                r.r2[3],
                r.r2[4],
            ));
            out.push_str(",\"denials\":{");
            let mut dfirst = true;
            for (reason, n) in &r.denials {
                if !dfirst {
                    out.push(',');
                }
                dfirst = false;
                out.push('"');
                out.push_str(&crate::json_escape(reason));
                out.push_str("\":");
                out.push_str(&n.to_string());
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }

    /// Render the drift log (newest first) as a JSON array.
    pub fn drift_json(&self, limit: usize) -> String {
        let deltas = self.drift(limit);
        let mut out = String::from("[");
        for (i, d) in deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push(']');
        out
    }

    /// Render the fired-alert ring (newest first) plus the active rules
    /// as a JSON object.
    pub fn alerts_json(&self, limit: usize) -> String {
        let alerts = self.alerts(limit);
        let mut out = String::from("{\"fired\":");
        out.push_str(&self.alerts_fired().to_string());
        out.push_str(",\"rules\":[");
        for (i, r) in self.rules().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&crate::json_escape(r));
            out.push('"');
        }
        out.push_str("],\"alerts\":[");
        for (i, a) in alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_json());
        }
        out.push_str("]}");
        out
    }

    /// The full insight state — rollups, plus at most `limit` drift
    /// entries and fired alerts each (`0` = all retained) — as one JSON
    /// object (the `/debug/insight` body).
    pub fn to_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"rollups\":");
        out.push_str(&self.rollups_json());
        out.push_str(",\"drift\":");
        out.push_str(&self.drift_json(limit));
        out.push_str(",\"alerts\":");
        out.push_str(&self.alerts_json(limit));
        out.push('}');
        out
    }
}

/// The process-wide insight aggregator the server records into.
pub fn global() -> &'static Insight {
    static GLOBAL: OnceLock<Insight> = OnceLock::new();
    GLOBAL.get_or_init(Insight::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowConfig, WindowLayer};
    use std::time::Duration;

    fn names(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn ev<'a>(principal: &'a str, views: &'a [String], rels: &'a [String]) -> Event<'a> {
        Event {
            principal,
            views,
            relations: rels,
            rows_delivered: 2,
            rows_withheld: 1,
            cells_delivered: 3,
            cells_masked: 1,
            cells_withheld: 2,
            r2: [1, 0, 2, 1, 0],
            ..Event::default()
        }
    }

    #[test]
    fn rollups_fold_and_key_canonically() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        ins.record(&ev("Brown", &names(&["PSA", "EST"]), &names(&["PROJECT"])));
        // Same combination, views listed in the other order → same key.
        ins.record(&ev("Brown", &names(&["EST", "PSA"]), &names(&["PROJECT"])));
        ins.record(&ev("Klein", &names(&[]), &names(&["PROJECT", "EMPLOYEE"])));
        assert_eq!(ins.len(), 2);
        let rows = ins.rollups();
        let brown = &rows
            .iter()
            .find(|((p, _, _), _)| p == "Brown")
            .expect("brown rollup")
            .1;
        assert_eq!(brown.requests, 2);
        assert_eq!(brown.cells_masked, 2);
        assert_eq!(brown.r2, [2, 0, 4, 2, 0]);
        let klein = rows.iter().find(|((p, _, _), _)| p == "Klein").unwrap();
        assert_eq!(klein.0 .1, "(none)");
        assert_eq!(klein.0 .2, "EMPLOYEE+PROJECT");
        let json = ins.rollups_json();
        assert!(json.contains("\"views\":\"EST+PSA\""));
        assert!(json.contains("\"clear_fallback\":0"));
        assert!(json.contains("\"wall_ns\":0,\"alloc_bytes\":0"), "{json}");
    }

    #[test]
    fn top_sums_each_principals_rollups_costliest_first() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        let (psa, est, rels) = (names(&["PSA"]), names(&["EST"]), names(&["PROJECT"]));
        // Brown holds two keys (different granting views).
        ins.record(&Event {
            wall_ns: 500,
            alloc_bytes: 64,
            cached: true,
            ..ev("Brown", &psa, &rels)
        });
        ins.record(&Event {
            wall_ns: 300,
            ..ev("Brown", &est, &rels)
        });
        // Klein and Adams tie on wall time; the name breaks the tie.
        ins.record(&Event {
            wall_ns: 100,
            ..ev("Klein", &psa, &rels)
        });
        ins.record(&Event {
            wall_ns: 100,
            ..ev("Adams", &psa, &rels)
        });
        assert_eq!(ins.len(), 4);
        let top = ins.top(0);
        let order: Vec<&str> = top.iter().map(|(u, _)| u.as_str()).collect();
        assert_eq!(order, ["Brown", "Adams", "Klein"]);
        let brown = &top[0].1;
        assert_eq!(brown.r2, [2, 0, 4, 2, 0]);
        // Each ev() masks 1 cell and withholds 2: 2 × (1 + 2) = 6.
        let cost: Vec<u64> = COST_COLUMNS.iter().map(|(_, get)| get(brown)).collect();
        assert_eq!(cost, [2, 800, 64, 6, 1]);
        assert_eq!(ins.top(1).len(), 1);
        assert_eq!(ins.top(1)[0].0, "Brown");
    }

    #[test]
    fn cost_series_validate_and_vanish_when_empty() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        assert_eq!(ins.prometheus(), "", "an empty table emits nothing");
        let (none, rels) = (names(&[]), names(&["R"]));
        ins.record(&Event {
            wall_ns: 999,
            ..ev("Brown \"q\"", &none, &rels)
        });
        let text = ins.prometheus();
        assert!(text.contains("# TYPE motro_user_cost_requests counter"));
        assert!(
            text.contains("motro_user_cost_wall_ns{user=\"Brown \\\"q\\\"\"} 999"),
            "{text}"
        );
        let series = crate::prom::validate(&text).expect("cost exposition validates");
        assert!(series.contains("motro_user_cost_cache_hits"));
    }

    #[test]
    fn rollup_cap_pools_into_other() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        for i in 0..(MAX_ROLLUPS + 10) {
            ins.record(&ev(&format!("user{i}"), &names(&[]), &names(&["R"])));
        }
        assert_eq!(ins.len(), MAX_ROLLUPS + 1);
        let rows = ins.rollups();
        let other = rows
            .iter()
            .find(|((p, _, _), _)| p == OTHER)
            .expect("pooled bucket");
        assert_eq!(other.1.requests, 10);
        // The per-principal view inherits the cap: one row per key here.
        let top = ins.top(0);
        assert_eq!(top.len(), MAX_ROLLUPS + 1);
        let pooled = top.iter().find(|(u, _)| u == OTHER).expect("pooled row");
        assert_eq!(pooled.1.requests, 10);
    }

    #[test]
    fn denial_reasons_bounded() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        for i in 0..(MAX_REASONS + 4) {
            let (views, rels, reason) = (names(&[]), names(&["R"]), format!("reason{i:02}"));
            let mut e = ev("Brown", &views, &rels);
            e.denied = Some(&reason);
            ins.record(&e);
        }
        let rows = ins.rollups();
        let r = &rows[0].1;
        assert_eq!(r.errors as usize, MAX_REASONS + 4);
        assert_eq!(r.denials.len(), MAX_REASONS + 1);
        assert_eq!(r.denials.get(OTHER), Some(&4));
    }

    #[test]
    fn drift_ring_caps_and_renders() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        for epoch in 0..(MAX_DRIFT as u64 + 5) {
            ins.record_drift(EpochDelta {
                epoch,
                stmt: "grant PSA to Brown".to_owned(),
                changes: vec![DriftChange {
                    user: "Brown".to_owned(),
                    view: "PSA".to_owned(),
                    gained: true,
                }],
                unix_ms: 1,
            });
        }
        let all = ins.drift(0);
        assert_eq!(all.len(), MAX_DRIFT);
        assert_eq!(all[0].epoch, MAX_DRIFT as u64 + 4, "newest first");
        assert!(all[0].render().contains("gained (Brown, PSA)"));
        assert!(ins
            .drift_json(2)
            .contains("\"gained\":[{\"user\":\"Brown\""));
        assert_eq!(ins.drift(3).len(), 3);
    }

    #[test]
    fn rule_grammar_round_trips() {
        for s in [
            "denial-spike: jump(delta(insight.errors)) >= 2 min 5",
            "epoch-fallback: delta(server.cache.epoch_fallbacks) > 0",
            "frac: jump(ratio(a.b, c.d)) <= 0.5 min 0.25",
            "rate: rate(insight.requests) < 100",
        ] {
            let rule = AlertRule::parse(s).unwrap();
            let rendered = rule.to_string();
            let reparsed = AlertRule::parse(&rendered).unwrap();
            assert_eq!(rule, reparsed, "{s} → {rendered}");
        }
        assert!(AlertRule::parse("no-colon delta(x) > 1").is_err());
        assert!(AlertRule::parse("r: bogus(x) > 1").is_err());
        assert!(AlertRule::parse("r: jump(jump(delta(x))) > 1").is_err());
        assert!(AlertRule::parse("r: delta(x) >").is_err());
        assert_eq!(AlertRule::defaults().len(), 4);
    }

    #[test]
    fn alerts_fire_deterministically_on_forced_rolls() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let layer = WindowLayer::new(WindowConfig {
            window: Duration::from_secs(3600),
            retention: 4,
        });
        let ins = Insight::new();
        ins.set_rules(vec![
            AlertRule::parse("denial-spike: jump(delta(insight.test.denied)) >= 2 min 5").unwrap(),
            AlertRule::parse("any-fallback: delta(insight.test.fallbacks) > 0").unwrap(),
        ]);
        let denied = crate::metrics::registry().counter("insight.test.denied");
        let fallbacks = crate::metrics::registry().counter("insight.test.fallbacks");

        // Window 1: 2 denials — baseline, nothing to jump from.
        denied.add(2);
        layer.force_roll();
        assert!(ins.evaluate_alerts(&layer).is_empty());
        // Re-evaluating without a new roll is a no-op.
        assert!(ins.evaluate_alerts(&layer).is_empty());

        // Window 2: 10 denials (5x) and one fallback → both rules fire.
        denied.add(10);
        fallbacks.add(1);
        layer.force_roll();
        let fired = ins.evaluate_alerts(&layer);
        assert_eq!(fired.len(), 2, "{fired:?}");
        assert_eq!(fired[0].rule, "denial-spike");
        assert!((fired[0].value - 5.0).abs() < 1e-9);
        assert_eq!(fired[1].rule, "any-fallback");
        assert_eq!(ins.alerts_fired(), 2);
        assert!(ins.alerts_json(0).contains("\"rule\":\"denial-spike\""));

        // Window 3: quiet → nothing fires, history retained.
        layer.force_roll();
        assert!(ins.evaluate_alerts(&layer).is_empty());
        assert_eq!(ins.alerts(0).len(), 2);
        // The min guard: 4 denials after 2 is a 2x jump but below min 5.
        denied.add(4);
        layer.force_roll();
        assert!(ins.evaluate_alerts(&layer).is_empty());
    }

    #[test]
    fn to_json_combines_sections() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let ins = Insight::new();
        ins.record(&ev("Brown", &names(&["PSA"]), &names(&["PROJECT"])));
        let json = ins.to_json(0);
        assert!(json.starts_with("{\"rollups\":["));
        assert!(json.contains("\"drift\":[]"));
        assert!(json.contains("\"rules\":["));
    }
}
