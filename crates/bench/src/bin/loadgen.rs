//! `loadgen` — closed-loop load generator for `motro-server`.
//!
//! Starts an in-process server over a [`ScaledWorld`], drives it with
//! concurrent client connections issuing repeated identical
//! retrievals (the mask cache's best case, and the common case for a
//! dashboard-style workload), and reports throughput and latency
//! percentiles for the cache-disabled and cache-enabled
//! configurations side by side.
//!
//! ```text
//! loadgen [--clients N] [--requests N] [--relations N] [--rows N]
//!         [--views N] [--users N] [--grants N] [--workers N] [--seed S]
//!         [--out FILE] [--churn N] [--churn-out FILE]
//!         [--churn-journal FILE] [--assert-retention PCT]
//!         [--overhead-report FILE] [--assert-overhead PCT]
//! ```
//!
//! `--workers` sizes the partitioned mask-pipeline executor inside each
//! request (DESIGN.md §6c); 1 (the default) is fully sequential.
//!
//! Writes `BENCH_server_cache.json` (or `--out`) in the workspace
//! BENCH_* convention.
//!
//! With `--churn N`, additionally runs the invalidation-churn
//! experiment (DESIGN.md §6e): warm one cache entry per `(user,
//! query)` pair, then interleave `N` rounds of grant churn — each
//! round revokes (or re-permits) one view from a round-robin victim
//! and measures how many *unaffected* users' entries survive the
//! mutation, plus the post-churn retrieval latency once the
//! materializer has rewarmed the victim. Writes
//! `BENCH_invalidation_churn.json` (or `--churn-out`);
//! `--assert-retention PCT` exits non-zero if any round retains less
//! than the bound — the CI guardrail for dependency-tracked
//! invalidation. `--churn-journal FILE` journals the churn run so
//! `motro-audit replay` can verify it byte-for-byte.
//!
//! With `--overhead-report`, additionally measures what each
//! observability layer costs, in one loop that interleaves four
//! comparisons of off/on run pairs over the same world:
//!
//! - `obs` (DESIGN.md §6b): recording off vs on, with a 1 s window and
//!   an audit journal (fsync off); 3 pairs.
//! - `trace` (§6f): recording on, tracing off vs on at sample 1.0 with
//!   a 256-trace store, so every request is traced and retained; 5 pairs.
//! - `prof` (§6g): recording on, `--prof` off vs on with allocation
//!   counting; 5 pairs.
//! - `insight` (§6h): recording on, rollups off vs on; 5 pairs.
//!
//! Each layer's smallest per-pair p50 ratio (the minimum damps
//! scheduler noise, since no real overhead makes a pair faster) lands in
//! the JSON under the layer's name, after checks that the on sides did
//! their work: the metrics snapshot parses and its percentiles re-derive
//! from the shipped `bucket_bounds_ns`, the journal advanced, every
//! prof-on request folded into a collapsed profile, and the rollups and
//! the per-principal cost table summed from them account for every
//! insight-on request. `--assert-overhead PCT` exits non-zero when any
//! layer exceeds the bound — the CI guardrail.

use motro_authz::{Frontend, SharedFrontend};
use motro_bench::{ScaledWorld, WorldParams};
use motro_server::{Client, JournalConfig, Server, ServerConfig};
use serde_json::{Map, Number, Value};
use std::time::Instant;

/// Counting wrapper around the system allocator, so the `prof` overhead
/// layer measures the real `--prof` configuration (counting off,
/// the wrapper costs one relaxed atomic load per allocation).
#[global_allocator]
static ALLOC: motro_obs::alloc::CountingAlloc = motro_obs::alloc::CountingAlloc::system();

struct Args {
    clients: usize,
    requests: usize,
    relations: usize,
    rows: usize,
    views: usize,
    users: usize,
    grants: usize,
    workers: usize,
    seed: u64,
    out: String,
    churn: usize,
    churn_out: String,
    churn_journal: Option<String>,
    assert_retention: Option<f64>,
    overhead_report: Option<String>,
    assert_overhead: Option<f64>,
}

impl Default for Args {
    fn default() -> Args {
        // A permission-heavy world: each user holds many grants, so the
        // meta side (mask computation) dominates the live data side and
        // the cache's effect is visible. Tune down with the flags for
        // quick smoke runs.
        Args {
            clients: 8,
            requests: 150,
            relations: 6,
            rows: 25,
            views: 400,
            users: 8,
            grants: 250,
            workers: 1,
            seed: 7,
            out: "BENCH_server_cache.json".to_owned(),
            churn: 0,
            churn_out: "BENCH_invalidation_churn.json".to_owned(),
            churn_journal: None,
            assert_retention: None,
            overhead_report: None,
            assert_overhead: None,
        }
    }
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut num = |target: &mut usize| {
            *target = it
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--clients" => num(&mut a.clients),
            "--requests" => num(&mut a.requests),
            "--relations" => num(&mut a.relations),
            "--rows" => num(&mut a.rows),
            "--views" => num(&mut a.views),
            "--users" => num(&mut a.users),
            "--grants" => num(&mut a.grants),
            "--workers" => num(&mut a.workers),
            "--seed" => {
                a.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => a.out = it.next().unwrap_or_else(|| usage()),
            "--churn" => num(&mut a.churn),
            "--churn-out" => a.churn_out = it.next().unwrap_or_else(|| usage()),
            "--churn-journal" => a.churn_journal = Some(it.next().unwrap_or_else(|| usage())),
            "--assert-retention" => {
                a.assert_retention = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--overhead-report" => a.overhead_report = Some(it.next().unwrap_or_else(|| usage())),
            "--assert-overhead" => {
                a.assert_overhead = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    a
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--clients N] [--requests N] [--relations N] [--rows N] \
         [--views N] [--users N] [--grants N] [--workers N] [--seed S] [--out FILE] \
         [--churn N] [--churn-out FILE] [--churn-journal FILE] [--assert-retention PCT] \
         [--overhead-report FILE] [--assert-overhead PCT]"
    );
    std::process::exit(2);
}

/// Per-run server shape for [`run`]: whether recording is on and which
/// optional subsystems the measured server carries. Defaults to the
/// bare configuration the overhead layers start from — recording and
/// cache on, no journal, no tracing, no profiling, no insight — so each
/// layer flips exactly what it measures.
#[derive(Clone)]
struct RunConfig {
    recording: bool,
    cache_capacity: usize,
    journal: Option<JournalConfig>,
    trace: Option<(usize, f64)>,
    prof: bool,
    insight: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            recording: true,
            cache_capacity: 1024,
            journal: None,
            trace: None,
            prof: false,
            insight: false,
        }
    }
}

/// One measured run: every client issues `requests` identical
/// retrievals; returns all per-request latencies in nanoseconds plus
/// the wall-clock for the whole run.
fn run(
    world: &ScaledWorld,
    stmts: &[String],
    args: &Args,
    config: RunConfig,
) -> (Vec<u64>, f64, u64, u64) {
    motro_obs::set_enabled(config.recording);
    let mut fe = Frontend::with_database(world.db.clone());
    *fe.auth_store_mut() = world.store.clone();
    fe.set_exec_config(motro_authz::rel::ExecConfig::with_workers(args.workers));
    let (trace_store, trace_sample) = config.trace.unwrap_or((0, 0.0));
    let server = Server::bind(
        "127.0.0.1:0",
        SharedFrontend::new(fe),
        ServerConfig {
            workers: args.clients.clamp(1, 8),
            cache_capacity: config.cache_capacity,
            journal: config.journal,
            trace_store,
            trace_sample,
            prof: config.prof,
            insight: config.insight,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let started = Instant::now();
    let client_sample = config.trace.map(|(_, p)| p);
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let user = world.users[c % world.users.len()].clone();
            let stmt = stmts[c % stmts.len()].clone();
            let requests = args.requests;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &user).expect("connect");
                client.set_trace(client_sample);
                let mut lat = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let t = Instant::now();
                    client.retrieve(&stmt).expect("retrieve");
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(args.clients * args.requests);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let wall = started.elapsed().as_secs_f64();
    let stats = server.cache().stats();
    (latencies, wall, stats.hits, stats.misses)
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(p * sorted.len() / 100).min(sorted.len() - 1)]
}

fn summarize(mut latencies: Vec<u64>, wall: f64, hits: u64, misses: u64) -> Map<String, Value> {
    latencies.sort_unstable();
    let n = latencies.len().max(1) as f64;
    let mean = latencies.iter().sum::<u64>() as f64 / n;
    let mut m = Map::new();
    let us = |ns: u64| Value::Number(Number::from(ns / 1_000));
    m.insert(
        "throughput_rps".to_owned(),
        Value::Number(Number::from(
            (latencies.len() as f64 / wall.max(1e-9)) as u64,
        )),
    );
    m.insert(
        "mean_us".to_owned(),
        Value::Number(Number::from((mean / 1_000.0) as u64)),
    );
    m.insert("p50_us".to_owned(), us(percentile(&latencies, 50)));
    m.insert("p90_us".to_owned(), us(percentile(&latencies, 90)));
    m.insert("p99_us".to_owned(), us(percentile(&latencies, 99)));
    m.insert(
        "requests".to_owned(),
        Value::Number(Number::from(latencies.len())),
    );
    m.insert("cache_hits".to_owned(), Value::Number(Number::from(hits)));
    m.insert(
        "cache_misses".to_owned(),
        Value::Number(Number::from(misses)),
    );
    m
}

fn mean_of(m: &Map<String, Value>) -> f64 {
    m.get("mean_us").and_then(Value::as_u64).unwrap_or(1) as f64
}

fn p50_of(mut latencies: Vec<u64>) -> u64 {
    latencies.sort_unstable();
    percentile(&latencies, 50)
}

fn mean_ns(latencies: &[u64]) -> f64 {
    latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64
}

/// Derive latency percentiles for the pipeline histograms purely from
/// the snapshot's shipped `bucket_bounds_ns` layout and raw bucket
/// counts — the way a remote dashboard would, with no knowledge of the
/// server's power-of-4 scheme. Cross-checked against the percentiles
/// the snapshot itself ships, so the two derivations can never drift.
fn derived_percentiles(parsed: &Value) -> Map<String, Value> {
    let bounds: Vec<u64> = parsed
        .get("bucket_bounds_ns")
        .and_then(Value::as_array)
        .expect("snapshot must ship bucket_bounds_ns")
        .iter()
        .map(|b| b.as_u64().expect("bound"))
        .collect();
    assert!(bounds.len() >= 2, "degenerate bucket layout: {bounds:?}");
    // The overflow bucket has no finite bound; extrapolate one more
    // step of whatever growth factor the shipped layout uses.
    let growth = (bounds[1] / bounds[0]).max(2);
    let quantile = |buckets: &[u64], q: f64| -> u64 {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return match bounds.get(i) {
                    Some(b) => *b,
                    None => bounds[bounds.len() - 1].saturating_mul(growth),
                };
            }
        }
        bounds[bounds.len() - 1].saturating_mul(growth)
    };
    let mut out = Map::new();
    for h in ["meta.eval_ns", "mask.apply_ns", "plan.compile_ns"] {
        let hist = parsed
            .get("histograms")
            .and_then(|v| v.get(h))
            .unwrap_or_else(|| panic!("snapshot missing histogram {h}"));
        let buckets: Vec<u64> = hist
            .get("buckets")
            .and_then(Value::as_array)
            .expect("histogram buckets")
            .iter()
            .map(|b| b.as_u64().expect("bucket count"))
            .collect();
        let mut m = Map::new();
        for (key, q) in [("p50_ns", 0.50), ("p95_ns", 0.95), ("p99_ns", 0.99)] {
            let derived = quantile(&buckets, q);
            let shipped = hist.get(key).and_then(Value::as_u64).unwrap_or(0);
            assert_eq!(
                derived, shipped,
                "{h} {key}: derived from bucket_bounds_ns disagrees with the snapshot"
            );
            m.insert(key.to_owned(), Value::Number(Number::from(derived)));
        }
        out.insert(h.to_owned(), Value::Object(m));
    }
    out
}

/// The four overhead layers: name, pair count, and the off and on
/// server shapes of each pair (see the module docs).
fn layers(journal: &std::path::Path) -> [(&'static str, usize, RunConfig, RunConfig); 4] {
    let base = RunConfig::default;
    let quiet = RunConfig {
        recording: false,
        ..base()
    };
    let journaled = RunConfig {
        journal: Some(JournalConfig::new(journal)),
        ..base()
    };
    let traced = RunConfig {
        trace: Some((256, 1.0)),
        ..base()
    };
    let profiled = RunConfig {
        prof: true,
        ..base()
    };
    let rolled_up = RunConfig {
        insight: true,
        ..base()
    };
    [
        ("obs", 3, quiet, journaled),
        ("trace", 5, base(), traced),
        ("prof", 5, base(), profiled),
        ("insight", 5, base(), rolled_up),
    ]
}

/// Measure every layer's overhead in one interleaved loop and check
/// that the on sides did their work. Returns the report (one entry per
/// layer) and each layer's overhead percentage.
fn overhead(
    world: &ScaledWorld,
    stmts: &[String],
    args: &Args,
) -> (Map<String, Value>, Vec<(&'static str, f64)>) {
    motro_obs::window::global().configure(motro_obs::window::WindowConfig {
        window: std::time::Duration::from_secs(1),
        retention: 6,
    });
    motro_obs::prof::global().reset();
    motro_obs::insight::global().reset();
    let journal = std::env::temp_dir().join(format!(
        "motro-loadgen-{}-journal.jsonl",
        std::process::id()
    ));
    let layers = layers(&journal);
    let mut pairs = vec![Vec::new(); layers.len()];
    let mut best = vec![f64::INFINITY; layers.len()];
    let rounds = layers.iter().map(|l| l.1).max().unwrap_or(0);
    for i in 0..rounds {
        for (l, (name, n, off, on)) in layers.iter().enumerate() {
            if i >= *n {
                continue;
            }
            let _ = std::fs::remove_file(&journal);
            let lat_off = run(world, stmts, args, off.clone()).0;
            let lat_on = run(world, stmts, args, on.clone()).0;
            // `--prof` leaves counting on after its server drops.
            motro_obs::alloc::set_counting(false);
            motro_obs::window::global().force_roll();
            let (p50_off, p50_on) = (p50_of(lat_off.clone()), p50_of(lat_on.clone()));
            let ratio = p50_on as f64 / (p50_off as f64).max(1.0);
            best[l] = best[l].min(ratio);
            eprintln!(
                "  {name} pair {}/{n}: p50 off {}us, on {}us (ratio {ratio:.3})",
                i + 1,
                p50_off / 1_000,
                p50_on / 1_000
            );
            let us = |ns: u64| Value::from(ns / 1_000);
            pairs[l].push(object([
                ("off_p50_us", us(p50_off)),
                ("on_p50_us", us(p50_on)),
                ("off_mean_us", us(mean_ns(&lat_off) as u64)),
                ("on_mean_us", us(mean_ns(&lat_on) as u64)),
            ]));
        }
    }
    let _ = std::fs::remove_file(&journal);
    motro_obs::set_enabled(true);

    // obs: the snapshot must be well-formed JSON carrying the cache
    // counters `/debug/stats` exposes, the journal must have advanced,
    // and the pipeline histograms' percentiles must re-derive.
    let snapshot: Value = motro_obs::metrics::registry()
        .snapshot()
        .to_json()
        .parse()
        .expect("metrics snapshot must parse as JSON");
    let counter = |c: &str| snapshot.get("counters").and_then(|v| v.get(c)).cloned();
    for c in ["server.cache.hits", "server.cache.misses"] {
        assert!(counter(c).is_some(), "snapshot missing counter {c}");
    }
    assert!(
        counter("journal.records")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1,
        "journal.records never advanced during the obs-on runs"
    );
    let derived = derived_percentiles(&snapshot);

    // prof and insight: every on-side request folded and recorded.
    let on_requests = |layer: &str| {
        let pairs = layers.iter().find(|l| l.0 == layer).map_or(0, |l| l.1);
        (pairs * args.clients * args.requests) as u64
    };
    let agg = motro_obs::prof::global();
    let profiled = on_requests("prof");
    assert_eq!(agg.folds(), profiled, "profile folds vs prof-on requests");
    let collapsed = agg.collapsed(motro_obs::prof::FlameMetric::SelfNs);
    assert!(!collapsed.is_empty(), "collapsed-stack output empty");
    for line in collapsed.lines() {
        let (path, value) = line.rsplit_once(' ').expect("collapsed line grammar");
        assert!(!path.is_empty() && value.parse::<u64>().is_ok(), "{line:?}");
    }
    let insight = motro_obs::insight::global();
    let expected = on_requests("insight");
    let recorded: u64 = insight.rollups().iter().map(|(_, r)| r.requests).sum();
    assert_eq!(recorded, expected, "rollup requests vs insight-on requests");
    let rollups: Value = insight
        .rollups_json()
        .parse()
        .expect("rollups_json must parse as JSON");
    assert!(rollups.as_array().is_some_and(|a| !a.is_empty()));
    let charged: u64 = insight.top(0).iter().map(|(_, r)| r.requests).sum();
    assert_eq!(
        charged, expected,
        "cost table requests vs insight-on requests"
    );
    motro_obs::prom::validate(&insight.prometheus()).expect("cost exposition must validate");

    let mut report = Map::new();
    report.insert("experiment".to_owned(), Value::from("overhead"));
    let mut overheads = Vec::new();
    for ((name, ..), (pairs, best)) in layers.iter().zip(pairs.into_iter().zip(best)) {
        let pct = (best - 1.0) * 100.0;
        let entry = object([
            ("pairs", Value::Array(pairs)),
            ("overhead_pct", Value::from(pct)),
        ]);
        report.insert((*name).to_owned(), entry);
        overheads.push((*name, pct));
    }
    report.insert("metrics_snapshot".to_owned(), snapshot);
    report.insert("derived_percentiles".to_owned(), Value::Object(derived));
    report.insert("profiled_requests".to_owned(), Value::from(profiled));
    report.insert("stage_paths".to_owned(), Value::from(agg.stages().len()));
    report.insert("rollup_keys".to_owned(), Value::from(insight.len()));
    (report, overheads)
}

/// A JSON object from key/value pairs.
fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The invalidation-churn experiment (DESIGN.md §6e): warm one cache
/// entry per `(user, query)` pair, then alternate grant churn with
/// retrieval sweeps. Each round flips one view grant on a round-robin
/// victim — a mutation whose touched-set is exactly that user — and
/// checks two things the dependency-tracked cache promises:
///
/// 1. **Retention**: every *other* user's warmed entries survive the
///    mutation (a full flush would drop them all).
/// 2. **Warm-on-write**: after `drain_materializer`, the following
///    sweep is served hot — including the victim, whose dropped
///    entries the background worker recomputed.
///
/// Returns the report and the minimum per-round retention percentage.
fn churn(world: &ScaledWorld, stmts: &[String], args: &Args) -> (Map<String, Value>, f64) {
    let mut fe = Frontend::with_database(world.db.clone());
    *fe.auth_store_mut() = world.store.clone();
    fe.set_exec_config(motro_authz::rel::ExecConfig::with_workers(args.workers));
    // Victims must hold a grant to flip; with grants ≥ 1 that is every
    // user, but guard anyway so tiny worlds degrade to a clear error.
    let victims: Vec<(String, String)> = world
        .users
        .iter()
        .filter_map(|u| {
            world
                .store
                .permitted_views(u)
                .first()
                .map(|v| (u.clone(), (*v).to_owned()))
        })
        .collect();
    assert!(
        !victims.is_empty(),
        "churn needs at least one user holding a grant (--grants >= 1)"
    );
    let journal = args
        .churn_journal
        .as_ref()
        .map(|p| JournalConfig::new(std::path::PathBuf::from(p)));
    let server = Server::bind(
        "127.0.0.1:0",
        SharedFrontend::new(fe),
        ServerConfig {
            workers: args.clients.clamp(1, 8),
            cache_capacity: 1024,
            journal,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // One persistent session per user; the first doubles as the
    // administrator issuing the churn statements.
    let mut sessions: Vec<Client> = world
        .users
        .iter()
        .map(|u| Client::connect(addr, u).expect("connect"))
        .collect();
    let mut admin = Client::connect(addr, "churn-admin").expect("connect admin");

    // Warm: every user retrieves every statement once, creating
    // users x queries cache entries (all dependency-tagged).
    for session in &mut sessions {
        for stmt in stmts {
            session.retrieve(stmt).expect("warm retrieve");
        }
    }
    let counts = |server: &Server| -> std::collections::HashMap<String, u64> {
        server.cache().user_counts().into_iter().collect()
    };

    let mut rounds = Vec::new();
    let mut min_retention = 100.0f64;
    let mut all_latencies = Vec::new();
    let mut revoked = vec![false; victims.len()];
    let mut prev = server.cache().stats();
    for round in 0..args.churn {
        let slot = round % victims.len();
        let (victim, view) = &victims[slot];
        let stmt = if revoked[slot] {
            format!("permit {view} to {victim}")
        } else {
            format!("revoke {view} from {victim}")
        };
        revoked[slot] = !revoked[slot];

        let pre = counts(&server);
        admin.admin(&stmt).expect("churn admin statement");
        let post = counts(&server);
        // Retention over the users the mutation did NOT touch. The
        // materializer only ever re-adds the victim's entries, so this
        // is race-free even while rewarming runs.
        let (mut held, mut survived) = (0u64, 0u64);
        for (user, had) in &pre {
            if user != victim {
                held += had;
                survived += post.get(user).copied().unwrap_or(0).min(*had);
            }
        }
        let retention = 100.0 * survived as f64 / held.max(1) as f64;
        min_retention = min_retention.min(retention);

        // Let warm-on-write finish, then sweep: with the victim's
        // entries rewarmed, the whole sweep should be served hot.
        server.drain_materializer();
        let mut latencies = Vec::with_capacity(sessions.len() * stmts.len());
        for session in &mut sessions {
            for stmt in stmts {
                let t = Instant::now();
                session.retrieve(stmt).expect("churn retrieve");
                latencies.push(t.elapsed().as_nanos() as u64);
            }
        }
        let now = server.cache().stats();
        let (hits, misses) = (now.hits - prev.hits, now.misses - prev.misses);
        prev = now;
        let mean_us = (mean_ns(&latencies) / 1_000.0) as u64;
        let num = |v: u64| Value::Number(Number::from(v));
        let mut r = Map::new();
        r.insert("round".to_owned(), num(round as u64));
        r.insert("victim".to_owned(), Value::String(victim.clone()));
        r.insert("statement".to_owned(), Value::String(stmt));
        r.insert(
            "retention_pct".to_owned(),
            Value::Number(Number::from_f64(retention).unwrap_or_else(|| Number::from(0u64))),
        );
        r.insert("mean_us".to_owned(), num(mean_us));
        r.insert("sweep_hits".to_owned(), num(hits));
        r.insert("sweep_misses".to_owned(), num(misses));
        rounds.push(Value::Object(r));
        all_latencies.extend(latencies);
    }

    let stats = server.cache().stats();
    let mat = server.materializer_stats();
    let num = |v: u64| Value::Number(Number::from(v));
    let mut cache = Map::new();
    cache.insert(
        "targeted_invalidations".to_owned(),
        num(stats.targeted_invalidations),
    );
    cache.insert(
        "full_invalidations".to_owned(),
        num(stats.full_invalidations),
    );
    cache.insert(
        "entries_invalidated".to_owned(),
        num(stats.entries_invalidated),
    );
    cache.insert("retained_last".to_owned(), num(stats.retained_last));
    cache.insert("epoch_fallbacks".to_owned(), num(stats.epoch_fallbacks));
    cache.insert("dep_index_keys".to_owned(), num(stats.dep_index_keys));
    cache.insert("dep_index_refs".to_owned(), num(stats.dep_index_refs));
    let mut mat_map = Map::new();
    if let Some(m) = mat {
        mat_map.insert("queued".to_owned(), num(m.queued));
        mat_map.insert("refreshed".to_owned(), num(m.done));
        mat_map.insert("dropped".to_owned(), num(m.dropped));
    }

    let mut report = Map::new();
    report.insert(
        "experiment".to_owned(),
        Value::String("invalidation_churn".to_owned()),
    );
    report.insert("rounds_run".to_owned(), num(args.churn as u64));
    report.insert(
        "min_retention_pct".to_owned(),
        Value::Number(Number::from_f64(min_retention).unwrap_or_else(|| Number::from(0u64))),
    );
    report.insert(
        "sweep_mean_us".to_owned(),
        num((mean_ns(&all_latencies) / 1_000.0) as u64),
    );
    report.insert("rounds".to_owned(), Value::Array(rounds));
    report.insert("cache".to_owned(), Value::Object(cache));
    report.insert("materializer".to_owned(), Value::Object(mat_map));
    (report, min_retention)
}

fn main() {
    let args = parse_args();
    let world = ScaledWorld::generate(WorldParams {
        relations: args.relations,
        rows_per_relation: args.rows,
        views: args.views,
        users: args.users,
        grants_per_user: args.grants,
        queries: args.clients.max(1),
        seed: args.seed,
    });
    let stmts: Vec<String> = world.queries.iter().map(|q| q.to_string()).collect();

    eprintln!(
        "loadgen: {} clients x {} requests, world: {} relations x {} rows, {} views, {} users",
        args.clients, args.requests, args.relations, args.rows, args.views, args.users
    );

    let (lat_u, wall_u, hits_u, misses_u) = run(
        &world,
        &stmts,
        &args,
        RunConfig {
            cache_capacity: 0,
            ..RunConfig::default()
        },
    );
    let uncached = summarize(lat_u, wall_u, hits_u, misses_u);
    eprintln!(
        "  uncached: {} req/s, p50 {}us, p99 {}us",
        uncached["throughput_rps"], uncached["p50_us"], uncached["p99_us"]
    );

    let (lat_c, wall_c, hits_c, misses_c) = run(&world, &stmts, &args, RunConfig::default());
    let cached = summarize(lat_c, wall_c, hits_c, misses_c);
    eprintln!(
        "  cached:   {} req/s, p50 {}us, p99 {}us ({} hits / {} misses)",
        cached["throughput_rps"], cached["p50_us"], cached["p99_us"], hits_c, misses_c
    );

    let speedup = mean_of(&uncached) / mean_of(&cached).max(1.0);
    eprintln!("  mean-latency speedup: {speedup:.2}x");

    let mut config = Map::new();
    for (k, v) in [
        ("clients", args.clients),
        ("requests", args.requests),
        ("relations", args.relations),
        ("rows_per_relation", args.rows),
        ("views", args.views),
        ("users", args.users),
        ("grants_per_user", args.grants),
    ] {
        config.insert(k.to_owned(), Value::Number(Number::from(v)));
    }
    config.insert("seed".to_owned(), Value::Number(Number::from(args.seed)));

    let mut report = Map::new();
    report.insert(
        "experiment".to_owned(),
        Value::String("server_cache".to_owned()),
    );
    report.insert("config".to_owned(), Value::Object(config));
    report.insert("uncached".to_owned(), Value::Object(uncached));
    report.insert("cached".to_owned(), Value::Object(cached));
    report.insert(
        "speedup_mean_latency".to_owned(),
        Value::Number(Number::from_f64(speedup).unwrap_or_else(|| Number::from(0u64))),
    );
    let json = Value::Object(report).to_string();
    std::fs::write(&args.out, &json).expect("write report");
    println!("{json}");

    if args.churn > 0 {
        eprintln!("loadgen: invalidation churn, {} rounds", args.churn);
        let (mut report, min_retention) = churn(&world, &stmts, &args);
        let mut config = Map::new();
        for (k, v) in [
            ("rounds", args.churn),
            ("users", args.users),
            ("views", args.views),
            ("grants_per_user", args.grants),
            ("queries", stmts.len()),
        ] {
            config.insert(k.to_owned(), Value::Number(Number::from(v)));
        }
        config.insert("seed".to_owned(), Value::Number(Number::from(args.seed)));
        report.insert("config".to_owned(), Value::Object(config));
        if let Some(b) = args.assert_retention {
            report.insert(
                "bound_pct".to_owned(),
                Value::Number(Number::from_f64(b).unwrap_or_else(|| Number::from(0u64))),
            );
        }
        let json = Value::Object(report).to_string();
        std::fs::write(&args.churn_out, &json).expect("write churn report");
        eprintln!(
            "  churn: min unaffected retention {min_retention:.1}% (report: {})",
            args.churn_out
        );
        if let Some(b) = args.assert_retention {
            if min_retention < b {
                eprintln!("loadgen: retention {min_retention:.1}% below bound {b}%");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.overhead_report {
        eprintln!("loadgen: measuring overhead of the obs, trace, prof, and insight layers");
        let (mut report, overheads) = overhead(&world, &stmts, &args);
        if let Some(b) = args.assert_overhead {
            report.insert("bound_pct".to_owned(), Value::from(b));
        }
        let json = Value::Object(report).to_string();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write overhead report {path}: {e}"));
        eprintln!("  report: {path}");
        let mut over = false;
        for (name, pct) in overheads {
            eprintln!("  {name} overhead: {pct:.2}%");
            if let Some(b) = args.assert_overhead.filter(|b| pct > *b) {
                eprintln!("loadgen: {name} overhead {pct:.2}% exceeds bound {b}%");
                over = true;
            }
        }
        if over {
            std::process::exit(1);
        }
    }
}
