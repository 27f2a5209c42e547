//! # motro-obs
//!
//! Observability for the Motro authorization pipeline: a lock-cheap
//! metrics registry and a structured logger — built on
//! `std::sync::atomic` and `parking_lot` only (no external
//! tracing/metrics dependencies, the workspace builds offline).
//!
//! The two pieces:
//!
//! * [`metrics`] — named [`metrics::Counter`]s, [`metrics::Gauge`]s and
//!   fixed-bucket latency [`metrics::Histogram`]s behind a global
//!   registry. Hot-path cost is one relaxed atomic op per update; the
//!   name lookup happens once per call site via the [`counter!`] /
//!   [`histogram!`] / [`gauge!`] macros, which cache the handle in a
//!   local `OnceLock`.
//! * [`log`] — structured log lines (level, message, fields) rendered
//!   as text or as JSON lines, switchable at runtime
//!   ([`log::set_format`]).
//!
//! On top of these, [`tracectx`] mints and propagates end-to-end
//! request trace identities (wire-carried, deterministically
//! head-sampled), [`profile`] threads trace/span ids through its
//! per-request span trees, [`tracestore`] retains interesting traces in
//! a bounded ring, and [`prom`] can attach OpenMetrics exemplars
//! (`trace_id` → histogram bucket) to the exposition. [`alloc`]
//! optionally counts per-thread allocation bytes (attributed to
//! profile stages), [`prof`] folds finished profile trees into a
//! continuous collapsed-stack aggregate — flamegraph-servable — and
//! [`insight`] keeps the one per-principal table of outcomes and cost.
//!
//! Everything is gated behind one global switch ([`set_enabled`]):
//! disabled, every update is a single relaxed atomic load and an early
//! return, which is what the `obs` layer of loadgen's overhead report
//! measures against.
//!
//! ```
//! let h = motro_obs::histogram!("demo.work_ns");
//! let t = motro_obs::start();
//! // ... do the work ...
//! h.record_since(t);
//! motro_obs::counter!("demo.items").add(3);
//! let snap = motro_obs::metrics::registry().snapshot();
//! assert!(snap.to_json().contains("demo.items"));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod insight;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod profile;
pub mod prom;
pub mod tracectx;
pub mod tracestore;
pub mod window;

pub use alloc::{AllocSnapshot, CountingAlloc};
pub use insight::{Alert, AlertRule, DriftChange, EpochDelta, Insight};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot};
pub use prof::{Aggregator, FlameMetric, StageStats};
pub use profile::ProfileNode;
pub use tracectx::TraceContext;
pub use tracestore::{StoredTrace, TraceStore, TraceStoreStats, TraceSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable all recording (metrics, insight
/// events). Disabled, every instrumentation point costs one relaxed
/// atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A timestamp for [`Histogram::record_since`] — `None` when recording
/// is disabled, so the disabled path never calls `Instant::now`.
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Serializes tests that toggle or depend on the global enabled flag.
#[cfg(test)]
pub(crate) fn test_guard() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_toggle_gates_start() {
        let _g = crate::test_guard();
        set_enabled(false);
        assert!(start().is_none());
        set_enabled(true);
        assert!(start().is_some());
    }

    #[test]
    fn json_escape_covers_controls() {
        let _g = crate::test_guard();
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
