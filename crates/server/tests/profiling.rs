//! Continuous profiling end-to-end: allocation accounting, the
//! `/debug/flame` collapsed-stack and `/debug/flame.svg` HTTP views,
//! per-user cost attribution (`/debug/top`, the insight rollups summed
//! per principal) checked against a journal-replay oracle, and
//! feature-off inertness for pre-profiling clients.
//!
//! The aggregator, rollups, metrics registry, and allocation-counting
//! switch are process globals shared by every test in this binary, so
//! each test takes [`guard`] and resets what it depends on.

use motro_authz::core::fixtures;
use motro_authz::{Frontend, SharedFrontend};
use motro_server::{journal, Client, Health, JournalConfig, MetricsServer, Server, ServerConfig};
use serde_json::Value;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

/// Attribution needs the wrapper installed as the global allocator —
/// exactly what `motro-serve` and `loadgen` do.
#[global_allocator]
static ALLOC: motro_obs::alloc::CountingAlloc = motro_obs::alloc::CountingAlloc::system();

/// Serializes the tests (shared aggregator/rollups/counting switch).
fn guard() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

/// The paper database with PSA (Acme projects) granted to Brown and
/// ELP granted to Klein, so two principals can drive distinct traffic.
fn frontend() -> SharedFrontend {
    let mut fe = Frontend::with_database(fixtures::paper_database());
    fe.execute_admin_program(
        "view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
           where PROJECT.SPONSOR = Acme;
         permit PSA to Brown;
         view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE);
         permit ELP to Klein",
    )
    .unwrap();
    SharedFrontend::new(fe)
}

const Q: &str = "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)";
const Q2: &str = "retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE)";

fn prof_config() -> ServerConfig {
    ServerConfig {
        prof: true,
        ..ServerConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("motro-profiling-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("audit.jsonl")
}

/// A route's body, fetched with a `debug` frame.
fn debug(c: &mut Client, path: &str) -> Value {
    c.debug(path).unwrap().1
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    s.flush().unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head");
    (head.to_owned(), body.to_owned())
}

#[test]
fn allocation_counting_is_gated_and_monotone() {
    let _g = guard();
    // Gated off: the wrapper delegates without counting.
    motro_obs::alloc::set_counting(false);
    let before = motro_obs::alloc::snapshot();
    std::hint::black_box(vec![0u8; 8192]);
    let off_delta = motro_obs::alloc::snapshot().delta_since(before);
    assert_eq!(off_delta.bytes, 0, "counting disabled must cost nothing");
    assert_eq!(off_delta.count, 0);

    // On: this thread's allocations land in its counters, monotonically.
    motro_obs::alloc::set_counting(true);
    let t0 = motro_obs::alloc::snapshot();
    std::hint::black_box(vec![0u8; 4096]);
    let t1 = motro_obs::alloc::snapshot();
    let d1 = t1.delta_since(t0);
    assert!(d1.bytes >= 4096, "4096-byte vec counted {} bytes", d1.bytes);
    assert!(d1.count >= 1);
    std::hint::black_box(String::from("x").repeat(1024));
    let t2 = motro_obs::alloc::snapshot();
    assert!(t2.bytes >= t1.bytes && t1.bytes >= t0.bytes, "monotone");
    assert!(t2.count > t1.count);
    motro_obs::alloc::set_counting(false);
}

#[test]
fn flame_endpoints_serve_collapsed_stacks_and_svg_agreeing_with_the_histogram() {
    let _g = guard();
    motro_obs::set_enabled(true);
    motro_obs::prof::global().reset();
    motro_obs::insight::global().reset();

    let server = Server::bind("127.0.0.1:0", frontend(), prof_config()).unwrap();
    let metrics =
        MetricsServer::bind("127.0.0.1:0", server.routes(), Arc::new(Health::default)).unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();

    let hist = motro_obs::histogram!("server.request_ns");
    let (count0, sum0) = (hist.count(), hist.sum_ns());
    const N: u64 = 12;
    for _ in 0..N {
        c.retrieve(Q).unwrap();
    }
    let (count1, sum1) = (hist.count(), hist.sum_ns());
    assert_eq!(count1 - count0, N, "only the retrieves hit the worker");

    // Collapsed stacks: every line is `path<SPACE>value`, frames split
    // on `;`, values are self-ns that re-fold to the inclusive totals.
    let (head, flame) = http_get(metrics.local_addr(), "/debug/flame");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        !flame.trim().is_empty(),
        "no collapsed output after {N} folds"
    );
    let mut total_self = 0u64;
    let mut root_invocations_seen = false;
    for line in flame.lines() {
        let (path, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(!path.is_empty());
        for frame in path.split(';') {
            assert!(!frame.is_empty(), "empty frame in {path:?}");
            assert!(
                !frame.contains(char::is_whitespace),
                "unsanitized frame {frame:?}"
            );
        }
        total_self += value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad value {line:?}"));
        if path == "retrieve" {
            root_invocations_seen = true;
        }
    }
    assert!(root_invocations_seen, "root frame missing: {flame}");

    // The re-folded total equals the profiled root wall time, which the
    // request-latency histogram also observed (the request's timing
    // opens slightly before the profile session, so the histogram reads
    // a bit higher).
    let hist_sum = sum1 - sum0;
    assert!(
        total_self <= hist_sum,
        "collapsed total {total_self}ns exceeds histogram sum {hist_sum}ns"
    );
    assert!(
        (total_self as f64) >= 0.2 * hist_sum as f64,
        "collapsed total {total_self}ns implausibly far below histogram sum {hist_sum}ns"
    );

    // `?alloc` switches the value to allocated bytes; this binary runs
    // the counting allocator, so the profiled requests counted bytes.
    let (_, alloc_flame) = http_get(metrics.local_addr(), "/debug/flame?alloc");
    let alloc_total: u64 = alloc_flame
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert!(alloc_total > 0, "no allocation attributed: {alloc_flame}");
    // Self bytes re-fold: the lines sum to the root's inclusive bytes.
    let prof = debug(&mut c, "/debug/prof");
    let stages = prof.get("report").and_then(|r| r.get("stages"));
    let root = stages
        .and_then(Value::as_array)
        .and_then(|s| {
            s.iter()
                .find(|s| s.get("path") == Some(&Value::from("retrieve")))
        })
        .unwrap_or_else(|| panic!("no retrieve root: {prof}"));
    let root_bytes = root.get("alloc_bytes").and_then(Value::as_u64);
    assert_eq!(Some(alloc_total), root_bytes, "{prof}");

    // The SVG is served with the right content type and is well formed
    // enough for a browser: one root <svg>, matching rect/title pairs.
    let (svg_head, svg) = http_get(metrics.local_addr(), "/debug/flame.svg");
    assert!(svg_head.starts_with("HTTP/1.1 200 OK"), "{svg_head}");
    assert!(svg_head.contains("image/svg+xml"), "{svg_head}");
    assert!(svg.starts_with("<?xml"), "{}", &svg[..svg.len().min(120)]);
    assert!(svg.contains("<svg "), "no <svg> root: {svg}");
    assert!(svg.trim_end().ends_with("</svg>"));
    assert!(svg.matches("<rect").count() >= 1, "no rects: {svg}");
    assert_eq!(
        svg.matches("<title>").count(),
        svg.matches("</title>").count(),
        "unbalanced titles"
    );
    drop(metrics);
    motro_obs::alloc::set_counting(false);
}

#[test]
fn top_ledger_agrees_with_a_journal_replay_oracle() {
    let _g = guard();
    motro_obs::set_enabled(true);
    motro_obs::prof::global().reset();
    motro_obs::insight::global().reset();

    let path = tmp("oracle");
    let config = ServerConfig {
        prof: true,
        journal: Some(JournalConfig::new(path.clone())),
        slow_query_ns: Some(0),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", frontend(), config).unwrap();
    let mut brown = Client::connect(server.local_addr(), "Brown").unwrap();
    let mut klein = Client::connect(server.local_addr(), "Klein").unwrap();

    // Brown: 5 retrieves of one statement (1 miss + 4 cache hits).
    for _ in 0..5 {
        brown.retrieve(Q).unwrap();
    }
    // Klein: 3 retrieves (1 miss + 2 hits).
    for _ in 0..3 {
        klein.retrieve(Q2).unwrap();
    }
    // A retrieve frame carrying a non-retrieval statement is a shape
    // error: nothing was evaluated, so neither the journal nor the
    // rollups count it.
    assert!(brown.retrieve("permit PSA to Brown").is_err());

    let top = debug(&mut brown, "/debug/top");
    assert_eq!(top.get("enabled"), Some(&Value::Bool(true)), "{top}");
    let users = top.get("users").and_then(Value::as_array).unwrap().clone();
    let row = |user: &str| {
        users
            .iter()
            .find(|u| u.get("user").and_then(Value::as_str) == Some(user))
            .unwrap_or_else(|| panic!("{user} missing from top: {top}"))
    };
    let n = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap();

    // Satellite: with the counting allocator live, slow-log entries
    // carry the request's allocation footprint.
    let slow = debug(&mut brown, "/debug/slow");
    let entries = slow.get("entries").and_then(Value::as_array).unwrap();
    assert!(!entries.is_empty());
    assert!(
        entries.iter().all(|e| n(e, "alloc_bytes") > 0),
        "slow entries missing alloc bytes: {slow}"
    );

    // Each row is the sum of that principal's rollups.
    let insight = debug(&mut brown, "/debug/insight");
    let rollups = insight.get("rollups").and_then(Value::as_array).unwrap();
    for u in &users {
        let mut sum = [0u64; 5];
        for r in rollups
            .iter()
            .filter(|r| r.get("principal") == u.get("user"))
        {
            let cols = [
                n(r, "requests"),
                n(r, "wall_ns"),
                n(r, "alloc_bytes"),
                n(r, "cells_masked") + n(r, "cells_withheld"),
                n(r, "cached"),
            ];
            for (acc, v) in sum.iter_mut().zip(cols) {
                *acc += v;
            }
        }
        let cols = [
            "requests",
            "wall_ns",
            "alloc_bytes",
            "cells_masked",
            "cache_hits",
        ];
        assert_eq!(cols.map(|key| n(u, key)), sum, "{u} vs {insight}");
    }

    // The per-user series join the exposition and still validate.
    let exposition = debug(&mut brown, "/metrics");
    let text = exposition.as_str().unwrap();
    let names = motro_obs::prom::validate(text).expect("exposition with cost series must validate");
    assert!(
        names.iter().any(|n| n.starts_with("motro_user_cost_")),
        "user cost series missing: {names:?}"
    );
    assert!(text.contains("user=\"Brown\""), "{text}");

    // Oracle: replay the journal's query records and count per
    // principal — total requests and cache hits must match the table.
    drop(server); // flush + close the live segment
    let files = journal::segments(&path); // rotated segments then live
    let mut journaled: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for file in files {
        for line in std::fs::read_to_string(&file).unwrap().lines() {
            let v: Value = line.parse().unwrap();
            if v.get("t").and_then(Value::as_str) != Some("query") {
                continue;
            }
            let principal = v
                .get("principal")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned();
            let cached = v.get("cached").and_then(Value::as_bool) == Some(true);
            let e = journaled.entry(principal).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(cached);
        }
    }
    assert_eq!(journaled.get("Brown"), Some(&(5, 4)), "{journaled:?}");
    assert_eq!(journaled.get("Klein"), Some(&(3, 2)), "{journaled:?}");
    for (user, (requests, hits)) in &journaled {
        let r = row(user);
        assert_eq!(n(r, "requests"), *requests, "{user} request count");
        assert_eq!(n(r, "cache_hits"), *hits, "{user} cache hits");
        assert!(n(r, "wall_ns") > 0, "{user} charged no wall time");
        assert!(n(r, "alloc_bytes") > 0, "{user} charged no allocation");
    }
    // Costliest-first: the listing is sorted by cumulative wall-ns.
    let walls: Vec<u64> = users.iter().map(|u| n(u, "wall_ns")).collect();
    assert!(walls.windows(2).all(|w| w[0] >= w[1]), "{walls:?}");
    motro_obs::alloc::set_counting(false);
}

#[test]
fn profiling_off_is_inert_for_old_clients() {
    let _g = guard();
    motro_obs::set_enabled(true);
    motro_obs::prof::global().reset();
    motro_obs::insight::global().reset();
    motro_obs::alloc::set_counting(false);

    let server = Server::bind("127.0.0.1:0", frontend(), ServerConfig::default()).unwrap();
    let folds_before = motro_obs::prof::global().folds();

    // A pre-profiling client speaking raw frames sees byte-compatible
    // replies: no new fields on rows, no counting, no cost charges.
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    writeln!(s, r#"{{"type":"hello","user":"Brown"}}"#).unwrap();
    writeln!(s, r#"{{"type":"retrieve","id":1,"stmt":"{Q}"}}"#).unwrap();
    s.flush().unwrap();
    let mut reader = std::io::BufReader::new(s);
    let mut read_line = || {
        use std::io::BufRead as _;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().parse::<Value>().unwrap()
    };
    let welcome = read_line();
    assert_eq!(welcome.get("type").and_then(Value::as_str), Some("welcome"));
    let rows = read_line();
    assert_eq!(rows.get("type").and_then(Value::as_str), Some("rows"));
    assert!(rows.get("alloc_bytes").is_none(), "{rows}");

    assert_eq!(
        motro_obs::prof::global().folds(),
        folds_before,
        "a prof-off server must not fold"
    );
    assert!(
        motro_obs::insight::global()
            .top(0)
            .iter()
            .all(|(_, r)| r.alloc_bytes == 0),
        "nothing charged"
    );
    assert!(!motro_obs::alloc::counting(), "counting stays off");

    // New clients still get answers — flagged disabled, with no data.
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    let prof = debug(&mut c, "/debug/prof");
    assert_eq!(prof.get("enabled"), Some(&Value::Bool(false)), "{prof}");
    let top = debug(&mut c, "/debug/top");
    assert_eq!(top.get("enabled"), Some(&Value::Bool(false)), "{top}");
    assert_eq!(
        top.get("users").and_then(Value::as_array).map(Vec::len),
        Some(0),
        "{top}"
    );

    // And the exposition carries no per-user series.
    let exposition = debug(&mut c, "/metrics");
    let text = exposition.as_str().unwrap();
    assert!(!text.contains("motro_user_cost_"), "{text}");
}

#[test]
fn cost_table_needs_insight_but_prof_still_folds() {
    let _g = guard();
    motro_obs::set_enabled(true);
    motro_obs::prof::global().reset();

    let config = ServerConfig {
        insight: false,
        ..prof_config()
    };
    let server = Server::bind("127.0.0.1:0", frontend(), config).unwrap();
    let mut c = Client::connect(server.local_addr(), "Brown").unwrap();
    for _ in 0..3 {
        c.retrieve(Q).unwrap();
    }

    // The table records only while insight is on: flagged disabled and
    // empty, and no per-user series, whatever the rollups hold.
    let top = debug(&mut c, "/debug/top");
    assert_eq!(top.get("enabled"), Some(&Value::Bool(false)), "{top}");
    let users = top.get("users").and_then(Value::as_array);
    assert_eq!(users.map(Vec::len), Some(0), "{top}");
    let exposition = debug(&mut c, "/metrics");
    assert!(!exposition.as_str().unwrap().contains("motro_user_cost_"));

    // Profiling itself is unaffected.
    let prof = debug(&mut c, "/debug/prof");
    assert_eq!(prof.get("enabled"), Some(&Value::Bool(true)), "{prof}");
    let folds = prof.get("report").and_then(|r| r.get("folds"));
    assert_eq!(folds.and_then(Value::as_u64), Some(3), "{prof}");
    motro_obs::alloc::set_counting(false);
}
