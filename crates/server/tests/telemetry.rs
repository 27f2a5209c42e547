//! Telemetry v2 end-to-end tests: the `/metrics` route over a `debug`
//! frame and HTTP, per-query profile trees, the slow-query log, and the
//! durable audit journal's write → rotate → restart → replay cycle.

use motro_authz::core::fixtures;
use motro_authz::rel::ExecConfig;
use motro_authz::{Frontend, SharedFrontend};
use motro_obs::prom;
use motro_server::{journal, Client, Health, JournalConfig, MetricsServer, Server, ServerConfig};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

/// The paper database with PSA (Acme projects) granted to Brown.
fn frontend() -> SharedFrontend {
    let mut fe = Frontend::with_database(fixtures::paper_database());
    fe.execute_admin_program(
        "view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
           where PROJECT.SPONSOR = Acme;
         permit PSA to Brown",
    )
    .unwrap();
    SharedFrontend::new(fe)
}

const Q: &str = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("motro-telemetry-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("audit.jsonl")
}

#[test]
fn metrics_wire_command_is_valid_exposition_covering_the_registry() {
    let server = Server::bind("127.0.0.1:0", frontend(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    // Drive the pipeline so the interesting histograms have samples.
    c.retrieve(Q).unwrap();
    c.retrieve(Q).unwrap();
    let (content_type, body) = c.debug("/metrics").unwrap();
    assert_eq!(content_type, prom::CONTENT_TYPE);
    let text = body.as_str().expect("text route").to_owned();
    let names = prom::validate(&text).expect("exposition must satisfy the 0.0.4 grammar");
    // Every metric registered in this process appears in the scrape.
    let snapshot = motro_obs::metrics::registry().snapshot();
    let registered: Vec<&String> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .collect();
    for name in registered {
        assert!(
            names.contains(&prom::metric_name(name)),
            "registered metric {name} missing from exposition"
        );
    }
    for lh in &snapshot.labeled_histograms {
        assert!(
            names.contains(&prom::metric_name(&lh.name)),
            "registered labeled histogram {} missing from exposition",
            lh.name
        );
    }
    // The pipeline metrics this session just exercised are present.
    for required in [
        "motro_server_requests",
        "motro_server_cache_misses",
        "motro_meta_eval_ns",
        "motro_mask_apply_ns",
    ] {
        assert!(names.contains(required), "missing {required} in scrape");
    }
}

#[test]
fn http_scrape_serves_the_same_exposition() {
    let server = Server::bind("127.0.0.1:0", frontend(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    c.retrieve(Q).unwrap();

    let mut metrics =
        MetricsServer::bind("127.0.0.1:0", server.routes(), Arc::new(Health::default)).unwrap();
    let scrape = |path: &str| -> String {
        let mut s = TcpStream::connect(metrics.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: test\r\nAccept: */*\r\n\r\n"
        )
        .unwrap();
        s.flush().unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        response
    };

    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        response.contains(prom::CONTENT_TYPE),
        "missing content type: {response}"
    );
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap();
    let names = prom::validate(&body).expect("scrape body must validate");
    assert!(names.contains("motro_server_requests"), "{body}");
    // Content-Length matches the body exactly.
    let declared: usize = response
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(declared, body.len());

    // Unknown paths 404 without killing the listener.
    let missing = scrape("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let again = scrape("/metrics?format=text");
    assert!(again.starts_with("HTTP/1.1 200 OK\r\n"), "{again}");

    metrics.shutdown();
    assert!(
        TcpStream::connect(metrics.local_addr()).is_err(),
        "listener survived shutdown"
    );
}

#[test]
fn profile_command_returns_the_span_tree_for_the_pipeline() {
    let server = Server::bind("127.0.0.1:0", frontend(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let reply = c.profile(Q).unwrap();
    assert_eq!(reply.epoch, c.epoch());
    // The rendered tree names every pipeline stage, in spirit of
    // EXPLAIN ANALYZE: parse → compile → plan.execute → mask.
    for stage in [
        "parse",
        "compile",
        "plan.execute",
        "mask.compute",
        "mask.apply",
    ] {
        assert!(
            reply.rendered.contains(stage),
            "stage {stage} missing from profile:\n{}",
            reply.rendered
        );
    }
    // The structured tree mirrors the rendering and carries durations.
    let root = reply.tree;
    assert!(root.get("stage").is_some(), "no stage in {root}");
    assert!(
        root.get("duration_ns")
            .and_then(serde_json::Value::as_u64)
            .is_some(),
        "no duration in {root}"
    );
    fn stages(v: &serde_json::Value, out: &mut Vec<String>) {
        if let Some(s) = v.get("stage").and_then(serde_json::Value::as_str) {
            out.push(s.to_owned());
        }
        if let Some(children) = v.get("children").and_then(serde_json::Value::as_array) {
            for c in children {
                stages(c, out);
            }
        }
    }
    let mut seen = Vec::new();
    stages(&root, &mut seen);
    assert!(seen.iter().any(|s| s == "mask.apply"), "tree: {seen:?}");
    // The profiled query still answers: the outcome summary names the
    // delivery counts but never ships row data.
    assert!(reply.outcome.get("withheld").is_some(), "{}", reply.outcome);
    assert!(reply.outcome.get("rows").is_none(), "{}", reply.outcome);

    // A second profile of the same statement rides the mask cache and
    // says so in its tree (the cache lookup replaces mask.compute).
    let cached = c.profile(Q).unwrap();
    assert!(
        cached.outcome.get("cached") == Some(&serde_json::Value::Bool(true)),
        "{}",
        cached.outcome
    );
}

#[test]
fn slow_query_log_captures_profiles_past_the_threshold() {
    let server = Server::bind(
        "127.0.0.1:0",
        frontend(),
        ServerConfig {
            slow_query_ns: Some(0), // every query is "slow"
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    c.retrieve(Q).unwrap();
    c.retrieve(Q).unwrap();
    let slow = server.slow_queries();
    assert!(slow.len() >= 2, "slow-query log empty at threshold 0");
    let entry = &slow[0];
    assert_eq!(entry.principal, "Brown");
    assert_eq!(entry.stmt, Q);
    assert!(entry.plan.is_some(), "slow entry lacks the canonical plan");
    let rendered = entry.profile.render_text();
    assert!(rendered.contains("parse"), "profile: {rendered}");

    // Without a threshold the log stays empty.
    let quiet = Server::bind("127.0.0.1:0", frontend(), ServerConfig::default()).unwrap();
    let mut q = Client::connect(quiet.local_addr(), "Brown").unwrap();
    q.retrieve(Q).unwrap();
    assert!(quiet.slow_queries().is_empty());
}

#[test]
fn stats_reply_carries_windowed_rates_and_bucket_bounds() {
    let server = Server::bind("127.0.0.1:0", frontend(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    c.retrieve(Q).unwrap();
    let (_, stats) = c.debug("/debug/stats").unwrap();
    let metrics = stats.get("metrics").expect("stats must ship metrics");
    let windows = metrics.get("windows").expect("stats must ship windows");
    assert!(
        windows.get("window_secs").is_some(),
        "windows report malformed: {windows}"
    );
    let bounds = metrics
        .get("bucket_bounds_ns")
        .and_then(serde_json::Value::as_array)
        .expect("stats must ship the histogram bucket layout");
    // Power-of-4 layout: strictly increasing, starting at 4ns.
    let bounds: Vec<u64> = bounds.iter().map(|b| b.as_u64().unwrap()).collect();
    assert_eq!(bounds[0], 4);
    for w in bounds.windows(2) {
        assert_eq!(w[1], w[0] * 4, "bounds are not powers of four: {bounds:?}");
    }
}

/// Drive a server through the full mix of journaled operations:
/// admin programs (including a failing one), membership changes,
/// updates, cached and uncached retrievals, aggregates, and errors.
fn exercise(addr: std::net::SocketAddr) {
    let mut admin = Client::connect(addr, "admin").unwrap();
    let mut brown = Client::connect(addr, "Brown").unwrap();
    let mut alice = Client::connect(addr, "Alice").unwrap();

    brown.retrieve(Q).unwrap(); // miss
    brown.retrieve(Q).unwrap(); // hit
    admin.admin("permit PSA to group acme-staff").unwrap();
    assert!(alice.retrieve(Q).unwrap().rows.is_empty());
    admin.member(true, "acme-staff", "Alice").unwrap();
    assert_eq!(alice.retrieve(Q).unwrap().rows.len(), 1);
    admin.member(false, "acme-staff", "Alice").unwrap();
    brown
        .update("insert into PROJECT values (zz-99, Acme, 10000)")
        .unwrap();
    assert_eq!(brown.retrieve(Q).unwrap().rows.len(), 2);
    // A denied update and a failing retrieval are journaled as errors.
    assert!(brown
        .update("insert into PROJECT values (yy-11, Apex, 10000)")
        .is_err());
    assert!(brown.retrieve("retrieve (NOSUCH.ATTR)").is_err());
    // An admin program that fails mid-way (the second permit names an
    // unknown view) applies its statement prefix; replay must reproduce
    // the partial effect.
    assert!(admin
        .admin("permit PSA to Klein; permit NOSUCH to Klein")
        .is_err());
    let mut klein = Client::connect(addr, "Klein").unwrap();
    assert_eq!(klein.retrieve(Q).unwrap().rows.len(), 2);
}

#[test]
fn journal_round_trip_survives_rotation_and_restart() {
    let path = tmp("roundtrip");
    let config = JournalConfig {
        path: path.clone(),
        fsync: false,
        max_bytes: 1024, // force several rotations
        explain_digests: true,
    };
    let fe = frontend();

    let mut server = Server::bind(
        "127.0.0.1:0",
        fe.clone(),
        ServerConfig {
            journal: Some(config.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    exercise(server.local_addr());
    server.shutdown();

    // Simulated restart: a fresh server reopens the same journal path
    // and appends a new `open` record with the current state.
    let segments_before = journal::segments(&path).len();
    let mut server = Server::bind(
        "127.0.0.1:0",
        fe,
        ServerConfig {
            journal: Some(config),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    c.retrieve(Q).unwrap();
    c.admin("revoke PSA from Klein").unwrap();
    server.shutdown();

    let segments = journal::segments(&path);
    assert!(
        segments.len() > 1 && segments.len() >= segments_before,
        "expected rotated segments, got {segments:?}"
    );
    let live = std::fs::read_to_string(&path).unwrap();
    assert!(
        live.contains("\"t\":\"open\""),
        "restart must re-open the journal with a state snapshot"
    );

    // Replay must verify byte-identically — and be worker-count
    // independent, per the model's purity claim.
    for exec in [ExecConfig::sequential(), ExecConfig::with_workers(4)] {
        let report = journal::replay_all(&path, exec).unwrap();
        assert!(report.ok(), "replay mismatches: {:?}", report.mismatches);
        assert!(report.segments >= segments.len());
        assert!(report.queries >= 8, "report: {report:?}");
        assert!(report.changes >= 6, "report: {report:?}");
    }
}

#[test]
fn tampered_journal_records_fail_replay() {
    let path = tmp("tamper");
    let mut server = Server::bind(
        "127.0.0.1:0",
        frontend(),
        ServerConfig {
            journal: Some(JournalConfig::new(path.clone())),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    c.retrieve(Q).unwrap();
    server.shutdown();

    let pristine = std::fs::read_to_string(&path).unwrap();
    assert!(
        journal::replay_all(&path, ExecConfig::sequential())
            .unwrap()
            .ok(),
        "untampered journal must verify"
    );

    // Inflate the delivery count on the query record: replay recomputes
    // the mask and catches the forgery.
    let tampered = pristine.replace("\"delivered\":1", "\"delivered\":3");
    assert_ne!(tampered, pristine, "fixture produced no query record");
    std::fs::write(&path, tampered).unwrap();
    let report = journal::replay_all(&path, ExecConfig::sequential()).unwrap();
    assert!(!report.ok(), "tampered journal passed verification");
}

#[test]
fn journal_records_are_well_formed_jsonl() {
    // Independent of replay, every journal line must parse as a JSON
    // object with a `t` discriminator and a numeric epoch — the
    // contract `motro-audit show` and log shippers rely on.
    let path = tmp("wellformed");
    let mut server = Server::bind(
        "127.0.0.1:0",
        frontend(),
        ServerConfig {
            journal: Some(JournalConfig::new(path.clone())),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    exercise(server.local_addr());
    server.shutdown();

    let mut kinds = std::collections::BTreeSet::new();
    for seg in journal::segments(&path) {
        for line in std::fs::read_to_string(&seg).unwrap().lines() {
            let v: serde_json::Value = line
                .parse()
                .unwrap_or_else(|e| panic!("unparseable journal line ({e}): {line}"));
            let t = v.get("t").and_then(serde_json::Value::as_str);
            assert!(t.is_some(), "record without discriminator: {line}");
            assert!(
                v.get("epoch").and_then(serde_json::Value::as_u64).is_some(),
                "record without epoch: {line}"
            );
            kinds.insert(t.unwrap().to_owned());
        }
    }
    for expected in ["open", "admin", "member", "update", "query"] {
        assert!(
            kinds.contains(expected),
            "no {expected} record; saw {kinds:?}"
        );
    }
}
