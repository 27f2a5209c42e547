//! `motro-serve` — serve an authorization front-end over TCP.
//!
//! ```text
//! motro-serve [ADDR] [--state FILE] [--workers N] [--exec-workers N]
//!             [--cache N] [--working-set N] [--no-materialize]
//!             [--admin USER]... [--log-format text|json]
//!             [--metrics-addr ADDR] [--window-secs N]
//!             [--journal FILE] [--journal-fsync]
//!             [--journal-max-bytes N] [--journal-explain]
//!             [--slow-query-ms N]
//!             [--trace-store N] [--trace-sample P]
//!             [--trace-mask-fraction F] [--exemplars] [--prof]
//!             [--no-insight] [--alert-rule RULE]...
//! ```
//!
//! `--workers` sizes the connection pool; `--exec-workers` sizes the
//! partitioned mask-pipeline executor *within* each request (see
//! DESIGN.md §6c) — results are identical at any value.
//!
//! Materialization (DESIGN.md §6e): by default a background worker
//! eagerly recomputes masks that a grant change invalidated, for the
//! `--working-set` most recently retrieved `(user, plan)` pairs, so
//! the next retrieval hits the cache again. `--no-materialize` turns
//! warm-on-write off; `--working-set 0` does too (no candidates).
//!
//! With `--state`, the server loads a [`Frontend::to_json`] snapshot —
//! a `save` reply, or a journal segment's `open` state — and serves
//! from its saved epoch; otherwise it starts from the paper's example
//! database (handy for demos: `permit`/`view` statements can be issued
//! over the wire).
//! Diagnostics go to stderr through the structured log sink
//! ([`motro_obs::log`]); `--log-format json` emits one JSON object per
//! line for log shippers.
//!
//! Introspection: one route table answers the wire `debug` frame
//! (`{"type":"debug","id":N,"path":"/debug/stats"}`) and the HTTP
//! listener alike — `/metrics`, `/debug/stats`, `/debug/cache`,
//! `/debug/traces`, `/debug/trace?id=HEX`, `/debug/slow`,
//! `/debug/prof`, `/debug/top`, `/debug/insight`, `/debug/flame`,
//! `/debug/flame.svg`. With `--admin`, only administrators may send
//! `debug` frames; the HTTP listener is an operator-only address.
//!
//! Telemetry (DESIGN.md §6d):
//! - `--metrics-addr` starts a plaintext HTTP listener serving the
//!   route table (`/metrics` in Prometheus text format).
//! - `--window-secs` sets the sliding-window length `/debug/stats` and
//!   the exposition use for rates and recent percentiles.
//! - `--journal FILE` appends every authorization-relevant event to a
//!   durable JSONL audit journal replayable with `motro-audit`;
//!   `--journal-fsync` makes each record durable before the reply,
//!   `--journal-max-bytes` rotates segments, and `--journal-explain`
//!   adds R2 decision summaries and EXPLAIN digests to query records.
//! - `--slow-query-ms` profiles every retrieval and logs the full span
//!   tree of any that runs at least that long.
//!
//! Tracing (DESIGN.md §6f):
//! - `--trace-store N` turns the tracing pipeline on, retaining up to
//!   `N` traces in a queryable in-memory ring (`/debug/traces`,
//!   `/debug/trace?id=HEX`). Every statement request then carries a
//!   trace id — the client's, or one minted at the edge.
//! - `--trace-sample P` head-samples edge-minted traces at probability
//!   `P` (0.0..=1.0). Tail retention force-keeps slow, errored,
//!   epoch-fallback, and heavily masked requests regardless of `P`.
//! - `--trace-mask-fraction F` sets the masked-cell fraction at which
//!   a trace is force-kept (default 0.5).
//! - `--exemplars` attaches OpenMetrics exemplars (`# {trace_id=...}`)
//!   to latency histogram buckets in the Prometheus exposition, so a
//!   dashboard can jump from a bucket straight to a retained trace.
//!
//! Profiling (DESIGN.md §6g):
//! - `--prof` profiles every statement request, folds the finished
//!   span tree into a continuous collapsed-stack aggregate, and
//!   switches on the counting allocator (per-request allocation
//!   bytes, which the insight rollups then carry). Inspect at
//!   `/debug/prof`, `/debug/flame` (collapsed stacks; `?alloc` for
//!   self bytes), and `/debug/flame.svg`. With insight on, `/debug/top`
//!   and per-user `motro_user_cost_*` series serve each principal's
//!   rollups summed.
//!
//! Insight (DESIGN.md §6h):
//! - Authorization analytics are on by default: every request folds
//!   into per-(principal, views, relations) rollups, every auth-epoch
//!   bump records a policy-drift delta, and alert rules are evaluated
//!   on window roll. Inspect at `/debug/insight` (rollups, drift, and
//!   alerts as JSON) and the `motro_insight_*` Prometheus series.
//!   `--no-insight` turns recording off; `--alert-rule RULE` replaces
//!   the default alert set (repeatable; grammar in DESIGN.md §6h,
//!   e.g. `'denial-spike: jump(delta(insight.errors)) >= 2 min 5'`).
//!
//! The metrics listener also answers `/healthz` (liveness: uptime,
//! auth epoch) and `/readyz` (readiness: journal and materializer
//! state; 503 when a configured subsystem has failed).

use motro_authz::{Frontend, SharedFrontend};
use motro_obs::log::{self, LogFormat};
use motro_server::{Health, JournalConfig, MetricsServer, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The counting wrapper around the system allocator: free until
/// `--prof` switches counting on (one relaxed atomic load per call).
#[global_allocator]
static ALLOC: motro_obs::alloc::CountingAlloc = motro_obs::alloc::CountingAlloc::system();

fn usage() -> ! {
    eprintln!(
        "usage: motro-serve [ADDR] [--state FILE] [--workers N] [--exec-workers N] [--cache N] \
         [--working-set N] [--no-materialize] [--admin USER]... [--log-format text|json] \
         [--metrics-addr ADDR] [--window-secs N] [--journal FILE] [--journal-fsync] \
         [--journal-max-bytes N] [--journal-explain] [--slow-query-ms N] [--trace-store N] \
         [--trace-sample P] [--trace-mask-fraction F] [--exemplars] [--prof] \
         [--no-insight] [--alert-rule RULE]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7171".to_owned();
    let mut state: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut admins: Vec<String> = Vec::new();
    let mut exec_workers: Option<usize> = None;
    let mut metrics_addr: Option<String> = None;
    let mut window_secs: Option<u64> = None;
    let mut journal_path: Option<String> = None;
    let mut journal_fsync = false;
    let mut journal_max_bytes: u64 = 0;
    let mut journal_explain = false;
    let mut alert_rules: Vec<motro_obs::AlertRule> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state" => state = Some(args.next().unwrap_or_else(|| usage())),
            "--workers" => {
                config.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--exec-workers" => {
                exec_workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--cache" => {
                config.cache_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--working-set" => {
                config.working_set = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--no-materialize" => config.materialize = false,
            "--admin" => admins.push(args.next().unwrap_or_else(|| usage())),
            "--log-format" => match args.next().as_deref() {
                Some("text") => log::set_format(LogFormat::Text),
                Some("json") => log::set_format(LogFormat::Json),
                _ => usage(),
            },
            "--metrics-addr" => metrics_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--window-secs" => {
                window_secs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--journal" => journal_path = Some(args.next().unwrap_or_else(|| usage())),
            "--journal-fsync" => journal_fsync = true,
            "--journal-max-bytes" => {
                journal_max_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--journal-explain" => journal_explain = true,
            "--slow-query-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.slow_query_ns = Some(ms.saturating_mul(1_000_000));
            }
            "--trace-store" => {
                config.trace_store = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace-sample" => {
                let p: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(0.0..=1.0).contains(&p) {
                    usage();
                }
                config.trace_sample = p;
            }
            "--trace-mask-fraction" => {
                let f: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(0.0..=1.0).contains(&f) {
                    usage();
                }
                config.trace_mask_fraction = f;
            }
            "--exemplars" => motro_obs::prom::set_exemplars(true),
            "--prof" => config.prof = true,
            "--no-insight" => config.insight = false,
            "--alert-rule" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match motro_obs::AlertRule::parse(&spec) {
                    Ok(rule) => alert_rules.push(rule),
                    Err(e) => {
                        eprintln!("bad --alert-rule {spec:?}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            a if a.starts_with('-') => usage(),
            a => addr = a.to_owned(),
        }
    }
    if !admins.is_empty() {
        config.admins = Some(admins);
    }
    if let Some(path) = journal_path {
        config.journal = Some(JournalConfig {
            path: path.into(),
            fsync: journal_fsync,
            max_bytes: journal_max_bytes,
            explain_digests: journal_explain,
        });
    }
    if !alert_rules.is_empty() {
        motro_obs::insight::global().set_rules(alert_rules);
    }
    if let Some(secs) = window_secs {
        motro_obs::window::global().configure(motro_obs::window::WindowConfig {
            window: std::time::Duration::from_secs(secs.max(1)),
            retention: 6,
        });
    }

    let mut frontend = match &state {
        Some(path) => {
            let json = match std::fs::read_to_string(path) {
                Ok(j) => j,
                Err(e) => {
                    log::error(
                        "cannot read state file",
                        &[("path", path.clone()), ("error", e.to_string())],
                    );
                    std::process::exit(1);
                }
            };
            match Frontend::from_json(&json) {
                Ok(fe) => fe,
                Err(e) => {
                    log::error(
                        "cannot load state file",
                        &[("path", path.clone()), ("error", e.to_string())],
                    );
                    std::process::exit(1);
                }
            }
        }
        None => Frontend::with_database(motro_authz::core::fixtures::paper_database()),
    };
    if let Some(n) = exec_workers {
        frontend.set_exec_config(motro_authz::rel::ExecConfig::with_workers(n));
    }

    let shared = SharedFrontend::new(frontend);
    let journal_on = config.journal.is_some();
    let mat_on = config.materialize && config.working_set > 0;
    let mut server = match Server::bind(&addr, shared.clone(), config) {
        Ok(s) => s,
        Err(e) => {
            log::error(
                "cannot bind",
                &[("addr", addr.clone()), ("error", e.to_string())],
            );
            std::process::exit(1);
        }
    };
    let mut exposition = None;
    if let Some(maddr) = &metrics_addr {
        // Probe state for /healthz and /readyz: the serving process's
        // uptime and auth epoch, plus whether the configured journal
        // has seen write errors (the materializer has no failure mode
        // short of a panic, so "configured" means "ok").
        let started = std::time::Instant::now();
        let health_fe = shared.clone();
        let health: motro_server::metrics_http::HealthFn = Arc::new(move || Health {
            uptime_secs: started.elapsed().as_secs(),
            auth_epoch: health_fe.auth_epoch(),
            journal_ok: journal_on.then(|| motro_obs::counter!("journal.errors").get() == 0),
            materializer_ok: mat_on.then_some(true),
        });
        match MetricsServer::bind(maddr, server.routes(), health) {
            Ok(m) => {
                log::info("metrics listening", &[("addr", m.local_addr().to_string())]);
                exposition = Some(m);
            }
            Err(e) => {
                log::error(
                    "cannot bind metrics listener",
                    &[("addr", maddr.clone()), ("error", e.to_string())],
                );
                std::process::exit(1);
            }
        }
    }
    log::info(
        "listening",
        &[
            ("addr", server.local_addr().to_string()),
            (
                "state",
                match &state {
                    Some(p) => p.clone(),
                    None => "paper example database".to_owned(),
                },
            ),
        ],
    );

    // Serve until stdin closes or the process is interrupted: reading
    // stdin keeps the binary portable (no signal-handling deps) while
    // still giving scripts a clean shutdown ("echo | motro-serve").
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut buf = String::new();
            let _ = std::io::stdin().read_line(&mut buf);
            done.store(true, Ordering::SeqCst);
        });
    }
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    log::info("shutting down", &[]);
    if let Some(mut m) = exposition.take() {
        m.shutdown();
    }
    server.shutdown();
}
