//! The introspection route table: one function maps a path to a content
//! type and a body. The wire `debug` frame and the HTTP listener
//! ([`crate::MetricsServer`]) both answer from it, so the two surfaces
//! serve the same bodies by construction.
//!
//! | path | content type | body |
//! |---|---|---|
//! | `/metrics` | Prometheus text | the registry plus the per-user cost series (with `--prof`) |
//! | `/debug/stats` | JSON | cache counters plus the metrics snapshot and windows |
//! | `/debug/cache` | JSON | live entries per user, dependency index, invalidations |
//! | `/debug/traces[?limit=N]` | JSON | retained traces, newest first, plus ring counters |
//! | `/debug/trace?id=HEX` | JSON | one retained trace with its span tree |
//! | `/debug/slow` | JSON | the slow-query log, newest first |
//! | `/debug/prof` | JSON | the continuous-profile aggregate: folds and stages |
//! | `/debug/top[?limit=N]` | JSON | each user's summed insight rollups, costliest first |
//! | `/debug/insight[?limit=N]` | JSON | rollups, policy drift, and alerts |
//! | `/debug/flame[?alloc]` | text | collapsed stacks (self ns, or bytes) |
//! | `/debug/flame.svg` | SVG | the rendered flamegraph |
//!
//! `limit` 0 (the default) means all. JSON bodies carry `enabled` where
//! the feature behind them can be off, so a client can tell "no data
//! yet" from "not recording". `/metrics`, `/debug/stats`, and
//! `/debug/insight` roll the window layer first and, with insight on,
//! evaluate the alert rules: scrapes are the one periodic heartbeat
//! every deployment has, and rules fire at most once per completed
//! window however often they are evaluated.

use crate::cache::CacheStats;
use crate::server::{Ctx, SlowQuery};
use crate::wire::{codes, obj};
use motro_obs::insight::{self, Rollup, COST_COLUMNS};
use motro_obs::prof::{self, FlameMetric};
use motro_obs::tracectx;
use motro_obs::tracestore::{StoredTrace, TraceStoreStats, TraceSummary};
use serde_json::{Map, Value};

/// The content type of every JSON route.
const JSON: &str = "application/json";

/// A route's answer: its content type and body — parsed JSON for JSON
/// routes, a string for text routes.
pub type Page = (&'static str, Value);

/// A failed lookup: a wire error code ([`codes::NOT_FOUND`] or
/// [`codes::BAD_REQUEST`]) and a message.
pub type RouteError = (&'static str, String);

const ROUTES: &str = "/metrics, /debug/stats, /debug/cache, /debug/traces, /debug/trace?id=HEX, \
                      /debug/slow, /debug/prof, /debug/top, /debug/insight, /debug/flame, \
                      /debug/flame.svg";

/// Answer one introspection path from the server's state.
pub(crate) fn route(ctx: &Ctx, path: &str) -> Result<Page, RouteError> {
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    let limit = match param(query, "limit") {
        Some(v) => v
            .parse()
            .map_err(|_| (codes::BAD_REQUEST, format!("bad limit {v:?}")))?,
        None => 0,
    };
    // The per-principal cost table is the insight rollups summed, served
    // with `--prof`; it records only while insight is on.
    let costs = ctx.prof && ctx.insight;
    let body = match route {
        "/metrics" => {
            roll(ctx);
            let mut text = motro_obs::prom::render(&motro_obs::metrics::registry().snapshot());
            // Per-user cost series carry a dynamic `user` label the
            // static registry can't hold; the rollups render their own
            // block (empty until someone is recorded).
            if costs {
                text.push_str(&insight::global().prometheus());
            }
            return Ok((motro_obs::prom::CONTENT_TYPE, Value::String(text)));
        }
        "/debug/stats" => {
            roll(ctx);
            let mut metrics = parse(&motro_obs::metrics::registry().snapshot().to_json());
            if let Value::Object(m) = &mut metrics {
                let windows = motro_obs::window::global().report().to_json();
                m.insert("windows".to_owned(), parse(&windows));
            }
            stats_body(&ctx.cache.stats(), metrics)
        }
        "/debug/cache" => cache_body(&ctx.cache.stats(), &ctx.cache.user_counts()),
        "/debug/traces" => match &ctx.trace {
            Some(ts) => traces_body(&ts.store.list(limit), ts.store.stats()),
            None => traces_body(&[], TraceStoreStats::default()),
        },
        "/debug/trace" => {
            let hex = param(query, "id")
                .ok_or_else(|| (codes::BAD_REQUEST, "trace requires ?id=HEX".to_owned()))?;
            let id = tracectx::parse_trace_id(hex)
                .ok_or_else(|| (codes::BAD_REQUEST, format!("bad trace id {hex:?}")))?;
            let trace = ctx.trace.as_ref().and_then(|ts| ts.store.get(id));
            match trace {
                Some(t) => trace_body(&t),
                None => {
                    let hex = tracectx::trace_id_hex(id);
                    return Err((codes::NOT_FOUND, format!("no retained trace {hex}")));
                }
            }
        }
        "/debug/slow" => slow_body(ctx.slow.lock().iter().rev()),
        "/debug/prof" => obj(vec![
            ("enabled", Value::from(ctx.prof)),
            ("report", parse(&prof::global().to_json())),
        ]),
        "/debug/top" => {
            let users = if costs {
                insight::global().top(limit)
            } else {
                Vec::new()
            };
            top_body(costs, &users)
        }
        "/debug/insight" => {
            roll(ctx);
            let mut body = parse(&insight::global().to_json(limit));
            if let Value::Object(m) = &mut body {
                m.insert("enabled".to_owned(), Value::from(ctx.insight));
            }
            body
        }
        "/debug/flame" => {
            let metric = match param(query, "alloc") {
                Some(_) => FlameMetric::AllocBytes,
                None => FlameMetric::SelfNs,
            };
            return Ok((
                "text/plain",
                Value::String(prof::global().collapsed(metric)),
            ));
        }
        "/debug/flame.svg" => {
            return Ok(("image/svg+xml", Value::String(prof::global().flame_svg())));
        }
        _ => return Err((codes::NOT_FOUND, format!("no route {route}; see {ROUTES}"))),
    };
    Ok((JSON, body))
}

/// Roll the window layer and, with insight on, evaluate the alert rules
/// against any newly completed window.
fn roll(ctx: &Ctx) {
    let layer = motro_obs::window::global();
    layer.roll_if_due();
    if ctx.insight {
        insight::global().evaluate_alerts(layer);
    }
}

/// The value of `key` in an `a=1&b` query string (`""` for a bare key).
fn param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then_some(v)
    })
}

/// Parse JSON one of the `motro_obs` renderers produced.
fn parse(json: &str) -> Value {
    json.parse().unwrap_or(Value::Null)
}

/// The dependency-index and invalidation counters `/debug/stats` and
/// `/debug/cache` share.
fn invalidation_pairs(cache: &CacheStats) -> Vec<(&'static str, Value)> {
    vec![
        (
            "targeted_invalidations",
            Value::from(cache.targeted_invalidations),
        ),
        ("full_invalidations", Value::from(cache.full_invalidations)),
        (
            "entries_invalidated",
            Value::from(cache.entries_invalidated),
        ),
        ("retained_last", Value::from(cache.retained_last)),
        ("epoch_fallbacks", Value::from(cache.epoch_fallbacks)),
        ("dep_index_keys", Value::from(cache.dep_index_keys)),
        ("dep_index_refs", Value::from(cache.dep_index_refs)),
    ]
}

/// `/debug/stats`: cache statistics plus a process-wide metrics
/// snapshot ([`motro_obs::MetricsSnapshot::to_json`] with the window
/// report under `windows`).
fn stats_body(cache: &CacheStats, metrics: Value) -> Value {
    let mut pairs = vec![
        ("hits", Value::from(cache.hits)),
        ("misses", Value::from(cache.misses)),
        ("entries", Value::from(cache.entries)),
        ("epoch_evictions", Value::from(cache.epoch_evictions)),
        ("capacity_evictions", Value::from(cache.capacity_evictions)),
    ];
    pairs.extend(invalidation_pairs(cache));
    pairs.push(("metrics", metrics));
    obj(pairs)
}

/// `/debug/cache`: live entry counts per user plus the dependency-index
/// and invalidation counters.
fn cache_body(cache: &CacheStats, users: &[(String, u64)]) -> Value {
    let users: Map<String, Value> = users
        .iter()
        .map(|(user, n)| (user.clone(), Value::from(*n)))
        .collect();
    let mut pairs = vec![
        ("entries", Value::from(cache.entries)),
        ("users", Value::Object(users)),
    ];
    pairs.extend(invalidation_pairs(cache));
    obj(pairs)
}

fn trace_pairs(
    trace_id: u128,
    principal: &str,
    stmt: &str,
    reasons: &[String],
    duration_ns: u64,
    unix_ms: u64,
) -> Vec<(&'static str, Value)> {
    vec![
        ("trace_id", Value::from(tracectx::trace_id_hex(trace_id))),
        ("principal", Value::from(principal)),
        ("stmt", Value::from(stmt)),
        (
            "reasons",
            Value::Array(reasons.iter().map(|r| Value::from(r.as_str())).collect()),
        ),
        ("duration_ns", Value::from(duration_ns)),
        ("unix_ms", Value::from(unix_ms)),
    ]
}

/// `/debug/traces`: the retained-trace listing (newest first) plus the
/// store's ring counters.
fn traces_body(list: &[TraceSummary], stats: TraceStoreStats) -> Value {
    let traces = list
        .iter()
        .map(|s| {
            obj(trace_pairs(
                s.trace_id,
                &s.principal,
                &s.stmt,
                &s.reasons,
                s.duration_ns,
                s.unix_ms,
            ))
        })
        .collect();
    obj(vec![
        ("traces", Value::Array(traces)),
        ("inserted", Value::from(stats.inserted)),
        ("evicted", Value::from(stats.evicted)),
        ("entries", Value::from(stats.entries)),
        ("capacity", Value::from(stats.capacity)),
    ])
}

/// `/debug/trace`: one retained trace — identity, request coordinates,
/// retention reasons, and the span tree as JSON and rendered text.
fn trace_body(t: &StoredTrace) -> Value {
    let mut pairs = trace_pairs(
        t.trace_id,
        &t.principal,
        &t.stmt,
        &t.reasons,
        t.duration_ns,
        t.unix_ms,
    );
    pairs.push(("tree", parse(&t.root.to_json())));
    pairs.push(("rendered", Value::from(t.root.render_text())));
    obj(pairs)
}

/// `/debug/slow`: the slow-query log, newest first. Entries carry the
/// trace id when the request was traced, so a client can follow up
/// with `/debug/trace` for the full span tree.
fn slow_body<'a>(entries: impl Iterator<Item = &'a SlowQuery>) -> Value {
    let entries = entries
        .map(|e| {
            let mut pairs = vec![
                ("principal", Value::from(e.principal.as_str())),
                ("stmt", Value::from(e.stmt.as_str())),
                ("duration_ns", Value::from(e.duration_ns)),
                ("alloc_bytes", Value::from(e.alloc_bytes)),
            ];
            if let Some(tid) = e.trace_id {
                pairs.push(("trace_id", Value::from(tracectx::trace_id_hex(tid))));
            }
            obj(pairs)
        })
        .collect();
    obj(vec![("entries", Value::Array(entries))])
}

/// `/debug/top`: each user's summed rollups, costliest (by wall-ns)
/// first, as the [`COST_COLUMNS`].
fn top_body(enabled: bool, users: &[(String, Rollup)]) -> Value {
    let users = users
        .iter()
        .map(|(user, r)| {
            let mut pairs = vec![("user", Value::from(user.as_str()))];
            pairs.extend(COST_COLUMNS.map(|(key, get)| (key, Value::from(get(r)))));
            obj(pairs)
        })
        .collect();
    obj(vec![
        ("enabled", Value::from(enabled)),
        ("users", Value::Array(users)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cache_stats() -> CacheStats {
        CacheStats {
            hits: 3,
            misses: 2,
            entries: 1,
            epoch_evictions: 4,
            capacity_evictions: 5,
            targeted_invalidations: 6,
            full_invalidations: 7,
            entries_invalidated: 8,
            retained_last: 9,
            epoch_fallbacks: 10,
            dep_index_keys: 11,
            dep_index_refs: 12,
        }
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(param("limit=3&alloc", "limit"), Some("3"));
        assert_eq!(param("limit=3&alloc", "alloc"), Some(""));
        assert_eq!(param("id=00ab", "id"), Some("00ab"));
        assert_eq!(param("", "limit"), None);
    }

    #[test]
    fn stats_body_carries_evictions_and_metrics() {
        let metrics: Value = motro_obs::metrics::registry()
            .snapshot()
            .to_json()
            .parse()
            .unwrap();
        let back: Value = stats_body(&sample_cache_stats(), metrics)
            .to_string()
            .parse()
            .unwrap();
        for (key, want) in [
            ("hits", 3),
            ("misses", 2),
            ("epoch_evictions", 4),
            ("capacity_evictions", 5),
            ("targeted_invalidations", 6),
            ("full_invalidations", 7),
            ("entries_invalidated", 8),
            ("retained_last", 9),
            ("epoch_fallbacks", 10),
            ("dep_index_keys", 11),
            ("dep_index_refs", 12),
        ] {
            assert_eq!(back.get(key).and_then(Value::as_u64), Some(want), "{key}");
        }
        assert!(back
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some());
        assert!(back
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .is_some());
    }

    #[test]
    fn cache_body_carries_user_counts() {
        let users = vec![("Brown".to_owned(), 2u64), ("Klein".to_owned(), 1u64)];
        let back = cache_body(&sample_cache_stats(), &users);
        assert_eq!(back.get("entries").and_then(Value::as_u64), Some(1));
        for (user, n) in [("Brown", 2), ("Klein", 1)] {
            assert_eq!(
                back.get("users")
                    .and_then(|u| u.get(user))
                    .and_then(Value::as_u64),
                Some(n)
            );
        }
        assert_eq!(back.get("dep_index_keys").and_then(Value::as_u64), Some(11));
    }

    #[test]
    fn trace_bodies_render() {
        use motro_obs::ProfileNode;
        let stored = StoredTrace {
            trace_id: 0xbeef,
            principal: "Brown".to_owned(),
            stmt: "retrieve (PROJECT.NUMBER)".to_owned(),
            reasons: vec!["sampled".to_owned(), "slow".to_owned()],
            duration_ns: 1234,
            unix_ms: 99,
            root: ProfileNode {
                stage: "server.retrieve".to_owned(),
                span_id: 1,
                duration_ns: 1234,
                alloc_bytes: 0,
                allocs: 0,
                fields: vec![("trace_id".to_owned(), "beef".to_owned())],
                children: Vec::new(),
            },
        };
        let back = trace_body(&stored);
        assert_eq!(
            back.get("trace_id").and_then(Value::as_str),
            Some("0000000000000000000000000000beef")
        );
        assert_eq!(
            back.get("tree")
                .and_then(|t| t.get("stage"))
                .and_then(Value::as_str),
            Some("server.retrieve")
        );
        assert!(back
            .get("rendered")
            .and_then(Value::as_str)
            .unwrap()
            .contains("server.retrieve"));

        let listing = traces_body(
            &[TraceSummary {
                trace_id: 0xbeef,
                principal: "Brown".to_owned(),
                stmt: "retrieve (PROJECT.NUMBER)".to_owned(),
                reasons: vec!["error".to_owned()],
                duration_ns: 7,
                unix_ms: 1,
            }],
            TraceStoreStats {
                inserted: 3,
                evicted: 2,
                entries: 1,
                capacity: 1,
            },
        );
        assert_eq!(listing.get("evicted").and_then(Value::as_u64), Some(2));
        let first = &listing.get("traces").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            first.get("reasons").and_then(Value::as_array).unwrap()[0],
            Value::from("error")
        );
    }
}
