//! End-to-end tests: a real server on a loopback socket, driven by the
//! blocking client and, where the protocol's failure modes matter, by
//! raw socket writes.

use motro_authz::core::fixtures;
use motro_authz::rel::Value;
use motro_authz::{Frontend, SharedFrontend};
use motro_server::{client, Client, ClientError, QueryReply, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

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

fn start(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", frontend(), config).unwrap()
}

const Q: &str = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";

/// A raw protocol connection for tests that must send invalid frames.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(server: &Server) -> Raw {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> serde_json::Value {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "server hung up"
        );
        line.trim().parse().unwrap()
    }
}

fn field<'v>(v: &'v serde_json::Value, key: &str) -> &'v serde_json::Value {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} in {v}"))
}

/// A JSON route's body, fetched with a `debug` frame.
fn debug(c: &mut Client, path: &str) -> serde_json::Value {
    let (content_type, body) = c.debug(path).unwrap();
    assert_eq!(content_type, "application/json", "{path}");
    body
}

fn num(v: &serde_json::Value, key: &str) -> u64 {
    field(v, key)
        .as_u64()
        .unwrap_or_else(|| panic!("{key:?} not a count in {v}"))
}

#[test]
fn hello_then_retrieve_masks_the_answer() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let rows = c.retrieve(Q).unwrap();
    assert_eq!(rows.columns, vec!["NUMBER", "SPONSOR"]);
    assert_eq!(
        rows.rows,
        vec![vec![
            Some(Value::Str("bq-45".to_owned())),
            Some(Value::Str("Acme".to_owned()))
        ]]
    );
    assert_eq!(rows.withheld, 2, "the two non-Acme projects are withheld");
    assert!(!rows.full_access);
    assert!(!rows.permits.is_empty(), "masked answers carry permits");
    // A principal with no grants gets an empty (but well-formed) answer.
    let mut k = Client::connect(server.local_addr(), "Klein").unwrap();
    let rows = k.retrieve(Q).unwrap();
    assert!(rows.rows.is_empty());
    assert_eq!(rows.withheld, 3);
}

#[test]
fn request_before_hello_is_rejected() {
    let server = start(ServerConfig::default());
    let mut raw = Raw::connect(&server);
    raw.send(r#"{"type":"retrieve","id":1,"stmt":"retrieve (PROJECT.NUMBER)"}"#);
    let reply = raw.recv();
    assert_eq!(field(&reply, "type").as_str(), Some("error"));
    assert_eq!(field(&reply, "code").as_str(), Some("unauthenticated"));
    assert_eq!(field(&reply, "id").as_u64(), Some(1));
    // The connection survives: hello then retrieve works.
    raw.send(r#"{"type":"hello","user":"Brown"}"#);
    assert_eq!(field(&raw.recv(), "type").as_str(), Some("welcome"));
}

#[test]
fn malformed_frames_are_rejected_without_killing_the_connection() {
    let server = start(ServerConfig::default());
    let mut raw = Raw::connect(&server);
    raw.send("this is not json");
    assert_eq!(field(&raw.recv(), "code").as_str(), Some("bad_frame"));
    raw.send("[1,2,3]");
    assert_eq!(field(&raw.recv(), "code").as_str(), Some("bad_frame"));
    raw.send(r#"{"type":"frobnicate","id":9}"#);
    let reply = raw.recv();
    assert_eq!(field(&reply, "code").as_str(), Some("bad_request"));
    assert_eq!(field(&reply, "id").as_u64(), Some(9));
    raw.send(r#"{"type":"retrieve","id":10}"#);
    assert_eq!(field(&raw.recv(), "code").as_str(), Some("bad_request"));
    raw.send(r#"{"type":"hello","user":"Brown"}"#);
    assert_eq!(field(&raw.recv(), "type").as_str(), Some("welcome"));
}

#[test]
fn oversized_frames_are_rejected() {
    let server = start(ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    });
    let mut raw = Raw::connect(&server);
    raw.send(r#"{"type":"hello","user":"Brown"}"#);
    assert_eq!(field(&raw.recv(), "type").as_str(), Some("welcome"));
    let huge = format!(
        r#"{{"type":"retrieve","id":1,"stmt":"{}"}}"#,
        "x".repeat(4096)
    );
    raw.send(&huge);
    assert_eq!(field(&raw.recv(), "code").as_str(), Some("frame_too_large"));
    // Framing is preserved: the next normal request succeeds.
    raw.send(&format!(r#"{{"type":"retrieve","id":2,"stmt":"{Q}"}}"#));
    let reply = raw.recv();
    assert_eq!(field(&reply, "type").as_str(), Some("rows"));
    assert_eq!(field(&reply, "id").as_u64(), Some(2));
}

#[test]
fn statement_errors_come_back_as_parse_or_exec() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    match c.retrieve("retrieve (((") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "parse"),
        other => panic!("expected parse error, got {other:?}"),
    }
    match c.retrieve("retrieve (NOSUCH.ATTR)") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "parse"),
        other => panic!("expected compile error, got {other:?}"),
    }
    // The session is still healthy.
    assert_eq!(c.retrieve(Q).unwrap().rows.len(), 1);
}

#[test]
fn concurrent_sessions_see_consistent_answers() {
    let server = start(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let user = if i % 2 == 0 { "Brown" } else { "Klein" };
                let mut c = Client::connect(addr, user).unwrap();
                for _ in 0..25 {
                    let rows = c.retrieve(Q).unwrap();
                    let expect = if user == "Brown" { 1 } else { 0 };
                    assert_eq!(rows.rows.len(), expect, "wrong answer for {user}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn pipelined_requests_are_all_answered() {
    let server = start(ServerConfig::default());
    let mut raw = Raw::connect(&server);
    raw.send(r#"{"type":"hello","user":"Brown"}"#);
    assert_eq!(field(&raw.recv(), "type").as_str(), Some("welcome"));
    let n = 20u64;
    for id in 1..=n {
        raw.send(&format!(r#"{{"type":"retrieve","id":{id},"stmt":"{Q}"}}"#));
    }
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n {
        let reply = raw.recv();
        assert_eq!(field(&reply, "type").as_str(), Some("rows"));
        assert!(seen.insert(field(&reply, "id").as_u64().unwrap()));
    }
    assert_eq!(seen, (1..=n).collect());
}

#[test]
fn graceful_shutdown_answers_in_flight_requests() {
    let mut server = start(ServerConfig::default());
    let addr = server.local_addr();
    let mut c = Client::connect(addr, "Brown").unwrap();
    c.ping().unwrap();
    server.shutdown();
    // The open session sees a clean EOF (not a hang), and new
    // connections are refused or die immediately.
    match c.ping() {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected EOF after shutdown, got {other:?}"),
    }
    assert!(
        Client::connect(addr, "Brown").is_err(),
        "connected after shutdown"
    );
    // Idempotent.
    server.shutdown();
}

#[test]
fn cache_hits_on_repeat_and_misses_across_users() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let first = c.retrieve(Q).unwrap();
    assert!(!first.cached);
    let second = c.retrieve(Q).unwrap();
    assert!(second.cached, "identical retrieval must hit the cache");
    assert_eq!(second.rows, first.rows);
    assert_eq!(second.permits, first.permits);
    // Another principal with the same plan is a different key.
    let mut k = Client::connect(server.local_addr(), "Klein").unwrap();
    assert!(!k.retrieve(Q).unwrap().cached);
    let stats = debug(&mut c, "/debug/stats");
    assert!(num(&stats, "hits") >= 1, "stats: {stats}");
    assert!(num(&stats, "misses") >= 2, "stats: {stats}");
    assert!(num(&stats, "entries") >= 2, "stats: {stats}");
}

#[test]
fn cache_capacity_zero_disables_caching() {
    let server = start(ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    assert!(!c.retrieve(Q).unwrap().cached);
    assert!(!c.retrieve(Q).unwrap().cached);
}

#[test]
fn revoke_invalidates_the_cached_mask() {
    // Materialization off: this test pins the bare invalidation path
    // (with it on, the rewarmed entry hits again — see
    // `warm_on_write_serves_fresh_masks_from_cache`).
    let server = start(ServerConfig {
        materialize: false,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let warm = c.retrieve(Q).unwrap();
    assert_eq!(warm.rows.len(), 1);
    assert!(c.retrieve(Q).unwrap().cached);
    let epoch_before = c.epoch();
    c.admin("revoke PSA from Brown").unwrap();
    assert!(c.epoch() > epoch_before, "revoke must advance the epoch");
    let after = c.retrieve(Q).unwrap();
    assert!(!after.cached, "revoked grant must not be served from cache");
    assert!(after.rows.is_empty(), "stale mask leaked rows after revoke");
    // Re-granting restores access under yet another epoch.
    c.admin("permit PSA to Brown").unwrap();
    let back = c.retrieve(Q).unwrap();
    assert!(!back.cached);
    assert_eq!(back.rows.len(), 1);
}

#[test]
fn group_membership_change_invalidates_the_cached_mask() {
    let server = start(ServerConfig {
        materialize: false,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(server.local_addr(), "admin").unwrap();
    admin.admin("permit PSA to group acme-staff").unwrap();
    let mut alice = Client::connect(server.local_addr(), "Alice").unwrap();
    // Not a member yet: the (cached) mask delivers nothing.
    assert!(alice.retrieve(Q).unwrap().rows.is_empty());
    assert!(alice.retrieve(Q).unwrap().cached);
    admin.member(true, "acme-staff", "Alice").unwrap();
    let joined = alice.retrieve(Q).unwrap();
    assert!(
        !joined.cached,
        "membership change must invalidate the cache"
    );
    assert_eq!(joined.rows.len(), 1, "member must see the group's rows");
    admin.member(false, "acme-staff", "Alice").unwrap();
    assert!(alice.retrieve(Q).unwrap().rows.is_empty());
}

#[test]
fn warm_on_write_serves_fresh_masks_from_cache() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    assert_eq!(c.retrieve(Q).unwrap().rows.len(), 1);
    assert!(c.retrieve(Q).unwrap().cached);
    // The revoke drops Brown's entry; the materializer recomputes it
    // from the working set before the next retrieval arrives.
    c.admin("revoke PSA from Brown").unwrap();
    server.drain_materializer();
    let after = c.retrieve(Q).unwrap();
    assert!(
        after.cached,
        "the materializer must have rewarmed the dropped entry"
    );
    assert!(
        after.rows.is_empty(),
        "the rewarmed mask must reflect the revoke"
    );
    let mat = server.materializer_stats().unwrap();
    assert!(mat.queued >= 1 && mat.done >= 1, "mat: {mat:?}");
    let info = debug(&mut c, "/debug/cache");
    assert!(num(&info, "targeted_invalidations") >= 1, "info: {info}");
    assert!(num(field(&info, "users"), "Brown") >= 1, "info: {info}");
}

#[test]
fn unrelated_users_entries_survive_a_grant_change() {
    let server = start(ServerConfig::default());
    let mut admin = Client::connect(server.local_addr(), "admin").unwrap();
    admin.admin("permit PSA to Klein").unwrap();
    let mut brown = Client::connect(server.local_addr(), "Brown").unwrap();
    let mut klein = Client::connect(server.local_addr(), "Klein").unwrap();
    brown.retrieve(Q).unwrap();
    klein.retrieve(Q).unwrap();
    // A grant change for Klein must leave Brown's mask cached.
    admin.admin("revoke PSA from Klein").unwrap();
    assert!(
        brown.retrieve(Q).unwrap().cached,
        "a mutation touching Klein must not evict Brown's entry"
    );
    let stats = debug(&mut brown, "/debug/stats");
    assert!(num(&stats, "targeted_invalidations") >= 1, "stats: {stats}");
    assert!(num(&stats, "retained_last") >= 1, "stats: {stats}");
    assert_eq!(num(&stats, "epoch_fallbacks"), 0, "stats: {stats}");
}

#[test]
fn group_principal_sessions_see_the_groups_views() {
    let server = start(ServerConfig::default());
    let mut admin = Client::connect(server.local_addr(), "admin").unwrap();
    admin.admin("permit PSA to group eng").unwrap();
    let mut g = Client::connect_group(server.local_addr(), "eng").unwrap();
    assert_eq!(g.retrieve(Q).unwrap().rows.len(), 1);
    // A plain user named "eng" is a different principal.
    let mut u = Client::connect(server.local_addr(), "eng").unwrap();
    assert!(u.retrieve(Q).unwrap().rows.is_empty());
}

#[test]
fn admin_requests_can_be_restricted() {
    let server = start(ServerConfig {
        admins: Some(vec!["root".to_owned()]),
        ..ServerConfig::default()
    });
    let mut brown = Client::connect(server.local_addr(), "Brown").unwrap();
    match brown.admin("permit PSA to Brown") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "admin_denied"),
        other => panic!("expected admin_denied, got {other:?}"),
    }
    match brown.member(true, "eng", "Brown") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "admin_denied"),
        other => panic!("expected admin_denied, got {other:?}"),
    }
    let mut root = Client::connect(server.local_addr(), "root").unwrap();
    root.admin("permit PSA to Klein").unwrap();
    let mut klein = Client::connect(server.local_addr(), "Klein").unwrap();
    assert_eq!(klein.retrieve(Q).unwrap().rows.len(), 1);
    // Introspection exposes other principals' statements, costs, and
    // grant changes: every route is administrators-only too.
    for path in [
        "/debug/insight",
        "/debug/slow",
        "/debug/traces",
        "/debug/top",
        "/metrics",
    ] {
        match brown.debug(path) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "admin_denied", "{path}"),
            other => panic!("expected admin_denied for {path}, got {other:?}"),
        }
    }
    let insight = debug(&mut root, "/debug/insight");
    let drift = field(&insight, "drift").to_string();
    assert!(drift.contains("permit PSA to Klein"), "{drift}");
}

#[test]
fn update_statements_run_under_the_principals_views() {
    let server = start(ServerConfig::default());
    let mut brown = Client::connect(server.local_addr(), "Brown").unwrap();
    // Inside PSA (an Acme project): allowed.
    brown
        .update("insert into PROJECT values (zz-99, Acme, 10000)")
        .unwrap();
    let rows = brown.retrieve(Q).unwrap();
    assert_eq!(rows.rows.len(), 2);
    // Outside PSA: denied.
    match brown.update("insert into PROJECT values (yy-11, Apex, 10000)") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "exec"),
        other => panic!("expected exec denial, got {other:?}"),
    }
}

#[test]
fn save_returns_a_snapshot_and_queries_keep_working() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let snapshot = c.save().unwrap();
    let saved_epoch = c.epoch();

    // A second server restored from the snapshot opens at the saved
    // epoch and answers every statement byte for byte as the first.
    let restored = Frontend::from_json(&snapshot).unwrap();
    let twin = Server::bind(
        "127.0.0.1:0",
        SharedFrontend::new(restored),
        ServerConfig::default(),
    )
    .unwrap();
    let mut d = Client::connect(twin.local_addr(), "Brown").unwrap();
    assert_eq!(d.epoch(), saved_epoch);
    for stmt in [
        Q,
        "retrieve (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= 250,000",
        "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
    ] {
        assert_eq!(
            c.retrieve(stmt).unwrap(),
            d.retrieve(stmt).unwrap(),
            "{stmt}"
        );
        let (a, b) = (
            c.explain(stmt, None).unwrap(),
            d.explain(stmt, None).unwrap(),
        );
        assert_eq!(a, b, "{stmt}");
    }
    assert_eq!(c.retrieve(Q).unwrap().rows.len(), 1);
}

#[test]
fn query_routes_rows_and_rejects_non_retrievals() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    match c.query(Q).unwrap() {
        QueryReply::Rows(rows) => assert_eq!(rows.rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }
    match c.retrieve("permit PSA to Klein") {
        Err(e) => assert!(!client::is_unauthenticated(&e)),
        Ok(_) => panic!("a permit statement is not a retrieval"),
    }
}

#[test]
fn explain_audits_the_masked_answer_over_the_wire() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let audit = c.explain(Q, None).unwrap();
    assert_eq!(audit.epoch, c.epoch());
    // The rendering names the granting view and the per-row verdicts.
    assert!(
        audit.rendered.contains("explain for Brown"),
        "{}",
        audit.rendered
    );
    assert!(audit.rendered.contains("PSA"), "{}", audit.rendered);
    assert!(audit.rendered.contains("withheld"), "{}", audit.rendered);
    // A principal with no grants sees the empty-mask audit.
    let mut k = Client::connect(server.local_addr(), "Klein").unwrap();
    let empty = k.explain(Q, None).unwrap();
    assert!(empty.rendered.contains("mask: empty"), "{}", empty.rendered);
}

#[test]
fn explaining_another_user_requires_the_admin_capability() {
    let server = start(ServerConfig {
        admins: Some(vec!["root".to_owned()]),
        ..ServerConfig::default()
    });
    let mut brown = Client::connect(server.local_addr(), "Brown").unwrap();
    // Auditing yourself is always allowed.
    brown.explain(Q, None).unwrap();
    brown.explain(Q, Some("Brown")).unwrap();
    // Auditing someone else is not.
    match brown.explain(Q, Some("Klein")) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "admin_denied"),
        other => panic!("expected admin_denied, got {other:?}"),
    }
    // The administrator may audit any principal.
    let mut root = Client::connect(server.local_addr(), "root").unwrap();
    let audit = root.explain(Q, Some("Brown")).unwrap();
    assert!(
        audit.rendered.contains("explain for Brown"),
        "{}",
        audit.rendered
    );
}

#[test]
fn stats_reports_evictions_and_a_metrics_snapshot() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    c.retrieve(Q).unwrap();
    c.retrieve(Q).unwrap();
    let stats = debug(&mut c, "/debug/stats");
    let metrics = field(&stats, "metrics");
    assert!(
        num(&stats, "hits") >= 1 && num(&stats, "misses") >= 1,
        "stats: {stats}"
    );
    assert_eq!(num(&stats, "epoch_evictions"), 0);
    assert_eq!(num(&stats, "capacity_evictions"), 0);
    // The snapshot carries the pipeline latency histograms and the
    // cache counters (process-global, so >= what this session caused).
    let histograms = metrics.get("histograms").expect("snapshot histograms");
    for h in [
        "lang.parse_ns",
        "plan.compile_ns",
        "meta.eval_ns",
        "mask.apply_ns",
    ] {
        assert!(
            histograms.get(h).is_some(),
            "missing histogram {h} in {metrics}"
        );
        let count = histograms
            .get(h)
            .and_then(|v| v.get("count"))
            .and_then(serde_json::Value::as_u64)
            .unwrap();
        assert!(count >= 1, "histogram {h} never recorded");
    }
    let counters = metrics.get("counters").expect("snapshot counters");
    for k in [
        "server.cache.hits",
        "server.cache.misses",
        "server.requests",
    ] {
        assert!(
            counters
                .get(k)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
                >= 1,
            "counter {k} never advanced: {metrics}"
        );
    }

    // A cache-disabled server must keep the wire-level stats and the
    // metrics snapshot in agreement too: its miss path feeds the same
    // `server.cache.misses` counter.
    let misses_of = |metrics: &serde_json::Value| {
        metrics
            .get("counters")
            .and_then(|c| c.get("server.cache.misses"))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
    };
    let disabled = start(ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let mut d = Client::connect(disabled.local_addr(), "Brown").unwrap();
    let global_before = misses_of(field(&debug(&mut d, "/debug/stats"), "metrics"));
    d.retrieve(Q).unwrap();
    d.retrieve(Q).unwrap();
    let disabled_stats = debug(&mut d, "/debug/stats");
    let m_after = field(&disabled_stats, "metrics");
    assert_eq!(
        (num(&disabled_stats, "hits"), num(&disabled_stats, "misses")),
        (0, 2),
        "capacity 0: every lookup misses"
    );
    // The global counter advanced by at least this server's misses
    // (other tests in the process may add more, never less).
    assert!(
        misses_of(m_after) >= global_before + num(&disabled_stats, "misses"),
        "metrics snapshot disagrees with wire stats: {} -> {} for {} misses",
        global_before,
        misses_of(m_after),
        num(&disabled_stats, "misses")
    );
}
