//! The wire protocol: newline-delimited JSON frames.
//!
//! Every frame is one JSON object on one line. The client opens with a
//! `hello` binding the connection to a principal; every subsequent
//! request carries a client-chosen `id` that the server echoes in the
//! reply, so requests may be pipelined and answered out of order.
//!
//! Requests (client → server):
//!
//! | frame | fields | meaning |
//! |---|---|---|
//! | `hello` | `user` *or* `group` | bind the session to a principal |
//! | `retrieve` | `id`, `stmt` | row-level retrieval (mask-cached) |
//! | `query` | `id`, `stmt` | any retrieval, row or aggregate |
//! | `admin` | `id`, `stmt` | `;`-separated administrative program |
//! | `update` | `id`, `stmt` | `insert into` / `delete from` |
//! | `member` | `id`, `op`, `group`, `user` | group membership change |
//! | `save` | `id` | snapshot the whole state as JSON |
//! | `profile` | `id`, `stmt` | run a retrieval under the profiler |
//! | `explain` | `id`, `stmt` [, `user`] | audit a retrieval (see below) |
//! | `debug` | `id`, `path` | one introspection route (admin; see below) |
//! | `ping` | `id` | liveness |
//!
//! Any request frame may additionally carry an **optional** `trace`
//! object — `{"trace_id": HEX128, "parent_span_id": HEX64,
//! "sampled": BOOL}` — propagating an end-to-end trace context from
//! the client ([`parse_frame`]). Old clients simply omit it and the
//! server mints a context at the edge; old servers ignore unknown
//! fields, so the protocol stays compatible in both directions.
//!
//! Replies (server → client): `welcome`, `rows`, `aggregate`, `ok`,
//! `state`, `profile`, `explain`, `debug`, `pong`, and `error` (with a
//! machine-readable `code`). Every data-bearing reply carries the
//! authorization `epoch` it was computed under, so a client — or a
//! soundness test — can correlate an answer with the grant state that
//! produced it. Replies to traced requests echo the request's
//! `trace_id`, so a client can join its answer with the server-side
//! trace.
//!
//! `explain` audits the session principal's own access by default; the
//! optional `user` field audits another principal and requires the
//! administrative capability. The reply carries the rendered
//! [`motro_authz::core::AuthExplain`] (as `rendered`): candidate
//! meta-tuples, R2 decisions, the surviving mask, and per-cell reasons.
//! Rust callers get the structure itself from
//! [`motro_authz::Frontend::explain_query`].
//!
//! `debug` answers from the introspection route table
//! ([`crate::debug`]) that also serves the HTTP listener: `/metrics`,
//! `/debug/stats`, `/debug/cache`, `/debug/traces[?limit=N]`,
//! `/debug/trace?id=HEX`, `/debug/slow`, `/debug/prof`,
//! `/debug/top[?limit=N]`, `/debug/insight[?limit=N]`,
//! `/debug/flame[?alloc]`, and `/debug/flame.svg`. The reply carries
//! the route's `content_type` and its `body` — parsed JSON for JSON
//! routes, a string for text routes. An unknown path is `not_found`.
//! When the server restricts administration, `debug` requires the
//! administrative capability: the routes expose every principal's
//! statements, costs, and grant changes.
//!
//! This module is pure data: no sockets, so the framing logic is unit
//! tested directly.

use motro_authz::rel::Value as RelValue;
use motro_obs::tracectx::{self, TraceContext};
use serde_json::{Map, Number, Value};

/// Machine-readable error codes carried by `error` replies.
pub mod codes {
    /// A request arrived before `hello`.
    pub const UNAUTHENTICATED: &str = "unauthenticated";
    /// The line was not a JSON object.
    pub const BAD_FRAME: &str = "bad_frame";
    /// The line exceeded the configured size limit.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
    /// A structurally valid frame with missing/ill-typed fields, or an
    /// unknown `type`.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The statement failed to parse or compile.
    pub const PARSE: &str = "parse";
    /// Authorization or execution failed.
    pub const EXEC: &str = "exec";
    /// The principal may not administer the store.
    pub const ADMIN_DENIED: &str = "admin_denied";
    /// The requested object (e.g. a retained trace) does not exist.
    pub const NOT_FOUND: &str = "not_found";
    /// The server is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Bind the connection to a principal.
    Hello {
        /// `"Brown"` for a user, `"group:eng"` for a group principal.
        principal: String,
    },
    /// A row-level retrieval (served through the mask cache).
    Retrieve { id: u64, stmt: String },
    /// Any retrieval — row-level or aggregate.
    Query { id: u64, stmt: String },
    /// An administrative program.
    Admin { id: u64, stmt: String },
    /// An `insert`/`delete` statement.
    Update { id: u64, stmt: String },
    /// A membership change (`op` is `add` or `remove`).
    Member {
        id: u64,
        add: bool,
        group: String,
        user: String,
    },
    /// Snapshot the state.
    Save { id: u64 },
    /// Execute a row-level retrieval under the profiler and return the
    /// per-stage span tree alongside the (summarized) outcome.
    Profile { id: u64, stmt: String },
    /// Audit a retrieval: why is each region delivered or masked?
    Explain {
        id: u64,
        stmt: String,
        /// Audit this principal instead of the session's own (admin).
        user: Option<String>,
    },
    /// One introspection route (`/metrics`, `/debug/stats`, …).
    Debug { id: u64, path: String },
    /// Liveness probe.
    Ping { id: u64 },
}

impl Request {
    /// The request id, when the frame carries one (`hello` does not).
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Hello { .. } => None,
            Request::Retrieve { id, .. }
            | Request::Query { id, .. }
            | Request::Admin { id, .. }
            | Request::Update { id, .. }
            | Request::Member { id, .. }
            | Request::Save { id }
            | Request::Profile { id, .. }
            | Request::Explain { id, .. }
            | Request::Debug { id, .. }
            | Request::Ping { id } => Some(*id),
        }
    }
}

/// Why a line failed to parse as a request.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// One of [`codes`].
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// The request id, when the frame was well-formed enough to have
    /// one (so the error reply can be correlated).
    pub id: Option<u64>,
}

impl FrameError {
    fn bad_frame(message: impl Into<String>) -> FrameError {
        FrameError {
            code: codes::BAD_FRAME,
            message: message.into(),
            id: None,
        }
    }

    fn bad_request(id: Option<u64>, message: impl Into<String>) -> FrameError {
        FrameError {
            code: codes::BAD_REQUEST,
            message: message.into(),
            id,
        }
    }
}

fn str_field(obj: &Map<String, Value>, key: &str) -> Option<String> {
    obj.get(key).and_then(Value::as_str).map(str::to_owned)
}

/// Parse one line into a [`Request`], discarding any trace context.
/// (Servers use [`parse_frame`]; this wrapper serves tests and tools
/// that only care about the request itself.)
pub fn parse_request(line: &str) -> Result<Request, FrameError> {
    parse_frame(line).map(|(request, _)| request)
}

/// The optional `trace` object of a frame, when present and well
/// formed: `trace_id` (hex, required), `parent_span_id` (hex,
/// default 0), `sampled` (default true).
fn parse_trace_field(
    obj: &Map<String, Value>,
    id: Option<u64>,
) -> Result<Option<TraceContext>, FrameError> {
    let t = match obj.get("trace") {
        None | Some(Value::Null) => return Ok(None),
        Some(Value::Object(t)) => t,
        Some(_) => {
            return Err(FrameError::bad_request(
                id,
                "\"trace\" must be a JSON object",
            ))
        }
    };
    let hex = t
        .get("trace_id")
        .and_then(Value::as_str)
        .ok_or_else(|| FrameError::bad_request(id, "trace requires a hex \"trace_id\" string"))?;
    let trace_id = tracectx::parse_trace_id(hex)
        .ok_or_else(|| FrameError::bad_request(id, format!("bad trace_id {hex:?}")))?;
    let parent_span_id = match t.get("parent_span_id") {
        None | Some(Value::Null) => 0,
        Some(Value::String(s)) => u64::from_str_radix(s.trim(), 16)
            .map_err(|_| FrameError::bad_request(id, format!("bad parent_span_id {s:?}")))?,
        Some(_) => {
            return Err(FrameError::bad_request(
                id,
                "\"parent_span_id\" must be a hex string",
            ))
        }
    };
    let sampled = t.get("sampled").and_then(Value::as_bool).unwrap_or(true);
    Ok(Some(TraceContext {
        trace_id,
        parent_span_id,
        sampled,
    }))
}

/// Parse one line into a [`Request`] plus the optional propagated
/// [`TraceContext`]. The `trace` field is additive: frames without it
/// (every pre-tracing client) parse exactly as before.
pub fn parse_frame(line: &str) -> Result<(Request, Option<TraceContext>), FrameError> {
    let value: Value = line
        .parse()
        .map_err(|e| FrameError::bad_frame(format!("not JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| FrameError::bad_frame("frame must be a JSON object"))?;
    let id = obj.get("id").and_then(Value::as_u64);
    let trace = parse_trace_field(obj, id)?;
    let ty =
        str_field(obj, "type").ok_or_else(|| FrameError::bad_request(id, "missing \"type\""))?;
    let need_id =
        || id.ok_or_else(|| FrameError::bad_request(None, format!("{ty} requires an \"id\"")));
    let need_stmt = || {
        str_field(obj, "stmt")
            .ok_or_else(|| FrameError::bad_request(id, format!("{ty} requires a \"stmt\"")))
    };
    let request = match ty.as_str() {
        "hello" => {
            let principal = match (str_field(obj, "user"), str_field(obj, "group")) {
                (Some(u), None) => u,
                (None, Some(g)) => format!("group:{g}"),
                (Some(_), Some(_)) => {
                    return Err(FrameError::bad_request(
                        id,
                        "hello takes \"user\" or \"group\", not both",
                    ))
                }
                (None, None) => {
                    return Err(FrameError::bad_request(
                        id,
                        "hello requires \"user\" or \"group\"",
                    ))
                }
            };
            Ok(Request::Hello { principal })
        }
        "retrieve" => Ok(Request::Retrieve {
            id: need_id()?,
            stmt: need_stmt()?,
        }),
        "query" => Ok(Request::Query {
            id: need_id()?,
            stmt: need_stmt()?,
        }),
        "admin" => Ok(Request::Admin {
            id: need_id()?,
            stmt: need_stmt()?,
        }),
        "update" => Ok(Request::Update {
            id: need_id()?,
            stmt: need_stmt()?,
        }),
        "member" => {
            let id = need_id()?;
            let op = str_field(obj, "op")
                .ok_or_else(|| FrameError::bad_request(Some(id), "member requires \"op\""))?;
            let add = match op.as_str() {
                "add" => true,
                "remove" => false,
                other => {
                    return Err(FrameError::bad_request(
                        Some(id),
                        format!("unknown member op {other:?} (want \"add\" or \"remove\")"),
                    ))
                }
            };
            let group = str_field(obj, "group")
                .ok_or_else(|| FrameError::bad_request(Some(id), "member requires \"group\""))?;
            let user = str_field(obj, "user")
                .ok_or_else(|| FrameError::bad_request(Some(id), "member requires \"user\""))?;
            Ok(Request::Member {
                id,
                add,
                group,
                user,
            })
        }
        "save" => Ok(Request::Save { id: need_id()? }),
        "profile" => Ok(Request::Profile {
            id: need_id()?,
            stmt: need_stmt()?,
        }),
        "explain" => Ok(Request::Explain {
            id: need_id()?,
            stmt: need_stmt()?,
            user: str_field(obj, "user"),
        }),
        "debug" => {
            let id = need_id()?;
            let path = str_field(obj, "path")
                .ok_or_else(|| FrameError::bad_request(Some(id), "debug requires a \"path\""))?;
            Ok(Request::Debug { id, path })
        }
        "ping" => Ok(Request::Ping { id: need_id()? }),
        other => Err(FrameError::bad_request(
            id,
            format!("unknown request type {other:?}"),
        )),
    }?;
    Ok((request, trace))
}

// ---------------------------------------------------------------------
// Reply construction. Replies are built as `serde_json::Value` trees and
// rendered with `Display` (compact, single-line — never embeds a raw
// newline, preserving the framing).

pub(crate) fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_owned(), v);
    }
    Value::Object(m)
}

/// A relational cell on the wire: integers as JSON numbers, strings as
/// JSON strings, masked cells as `null`.
pub fn cell_to_value(cell: &Option<RelValue>) -> Value {
    match cell {
        None => Value::Null,
        Some(RelValue::Int(n)) => Value::Number(Number::from(*n)),
        Some(RelValue::Str(s)) => Value::String(s.clone()),
    }
}

/// Parse a wire cell back into a relational cell.
pub fn value_to_cell(v: &Value) -> Result<Option<RelValue>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Number(n) => n
            .as_i64()
            .map(|n| Some(RelValue::Int(n)))
            .ok_or_else(|| format!("non-integer number {n}")),
        Value::String(s) => Ok(Some(RelValue::Str(s.clone()))),
        other => Err(format!("unexpected cell {other}")),
    }
}

/// `welcome` — the reply to `hello`.
pub fn welcome(principal: &str, epoch: u64) -> Value {
    obj(vec![
        ("type", Value::from("welcome")),
        ("principal", Value::from(principal)),
        ("epoch", Value::from(epoch)),
    ])
}

/// The payload of a `rows` reply (the masked answer).
pub struct RowsReply {
    pub id: u64,
    /// The authorization epoch the mask was computed under.
    pub epoch: u64,
    /// Whether the mask came from the cache.
    pub cached: bool,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Option<RelValue>>>,
    pub withheld: usize,
    pub full_access: bool,
    /// Rendered inferred `permit` statements.
    pub permits: Vec<String>,
}

/// `rows` — a masked row-level answer.
pub fn rows(reply: &RowsReply) -> Value {
    obj(vec![
        ("type", Value::from("rows")),
        ("id", Value::from(reply.id)),
        ("epoch", Value::from(reply.epoch)),
        ("cached", Value::from(reply.cached)),
        (
            "columns",
            Value::Array(
                reply
                    .columns
                    .iter()
                    .map(|c| Value::from(c.as_str()))
                    .collect(),
            ),
        ),
        (
            "rows",
            Value::Array(
                reply
                    .rows
                    .iter()
                    .map(|r| Value::Array(r.iter().map(cell_to_value).collect()))
                    .collect(),
            ),
        ),
        ("withheld", Value::from(reply.withheld)),
        ("full_access", Value::from(reply.full_access)),
        (
            "permits",
            Value::Array(
                reply
                    .permits
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect(),
            ),
        ),
    ])
}

/// `aggregate` — a rendered aggregate answer.
pub fn aggregate(id: u64, epoch: u64, rendered: &str) -> Value {
    obj(vec![
        ("type", Value::from("aggregate")),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch)),
        ("rendered", Value::from(rendered)),
    ])
}

/// `ok` — an administrative acknowledgement.
pub fn ok(id: u64, epoch: u64, messages: &[String]) -> Value {
    obj(vec![
        ("type", Value::from("ok")),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch)),
        (
            "messages",
            Value::Array(messages.iter().map(|m| Value::from(m.as_str())).collect()),
        ),
    ])
}

/// `state` — a whole-state snapshot.
pub fn state(id: u64, epoch: u64, snapshot: &str) -> Value {
    obj(vec![
        ("type", Value::from("state")),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch)),
        ("snapshot", Value::from(snapshot)),
    ])
}

/// `profile` — one retrieval's per-stage span tree. `tree` is the
/// [`motro_obs::ProfileNode`] JSON; `rendered` its indented text form;
/// `outcome` a summary of the (already authorized) answer so the
/// profile can be correlated with what the user actually received.
pub fn profile(id: u64, epoch: u64, tree: Value, rendered: &str, outcome: Value) -> Value {
    obj(vec![
        ("type", Value::from("profile")),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch)),
        ("tree", tree),
        ("rendered", Value::from(rendered)),
        ("outcome", outcome),
    ])
}

/// `explain` — the audit of one retrieval: the rendered
/// [`motro_authz::core::AuthExplain`].
pub fn explain(id: u64, epoch: u64, rendered: &str) -> Value {
    obj(vec![
        ("type", Value::from("explain")),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch)),
        ("rendered", Value::from(rendered)),
    ])
}

/// Echo the request's trace id into a reply object, so a traced client
/// can join the answer with the server-side trace without trusting
/// clocks. No-op for untraced requests or non-object replies.
pub fn with_trace_id(mut reply: Value, ctx: Option<&TraceContext>) -> Value {
    if let (Some(ctx), Value::Object(map)) = (ctx, &mut reply) {
        map.insert("trace_id".to_owned(), Value::from(ctx.trace_id_hex()));
    }
    reply
}

/// `debug` — one introspection route's answer: its content type and
/// body (parsed JSON for JSON routes, a string for text routes).
pub fn debug(id: u64, epoch: u64, path: &str, content_type: &str, body: Value) -> Value {
    obj(vec![
        ("type", Value::from("debug")),
        ("id", Value::from(id)),
        ("epoch", Value::from(epoch)),
        ("path", Value::from(path)),
        ("content_type", Value::from(content_type)),
        ("body", body),
    ])
}

/// `pong` — the reply to `ping`.
pub fn pong(id: u64) -> Value {
    obj(vec![("type", Value::from("pong")), ("id", Value::from(id))])
}

/// `error` — a structured failure.
pub fn error(id: Option<u64>, code: &str, message: &str) -> Value {
    let mut pairs = vec![("type", Value::from("error"))];
    if let Some(id) = id {
        pairs.push(("id", Value::from(id)));
    }
    pairs.push(("code", Value::from(code)));
    pairs.push(("message", Value::from(message)));
    obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_type() {
        assert_eq!(
            parse_request(r#"{"type":"hello","user":"Brown"}"#).unwrap(),
            Request::Hello {
                principal: "Brown".to_owned()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"hello","group":"eng"}"#).unwrap(),
            Request::Hello {
                principal: "group:eng".to_owned()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"retrieve","id":7,"stmt":"retrieve (R.A)"}"#).unwrap(),
            Request::Retrieve {
                id: 7,
                stmt: "retrieve (R.A)".to_owned()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"member","id":1,"op":"add","group":"eng","user":"Klein"}"#)
                .unwrap(),
            Request::Member {
                id: 1,
                add: true,
                group: "eng".to_owned(),
                user: "Klein".to_owned()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"explain","id":5,"stmt":"retrieve (R.A)"}"#).unwrap(),
            Request::Explain {
                id: 5,
                stmt: "retrieve (R.A)".to_owned(),
                user: None
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"explain","id":6,"stmt":"retrieve (R.A)","user":"Klein"}"#)
                .unwrap(),
            Request::Explain {
                id: 6,
                stmt: "retrieve (R.A)".to_owned(),
                user: Some("Klein".to_owned())
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"ping","id":9}"#).unwrap(),
            Request::Ping { id: 9 }
        );
    }

    #[test]
    fn debug_requests_parse_and_replies_carry_the_body() {
        assert_eq!(
            parse_request(r#"{"type":"debug","id":21,"path":"/debug/insight?limit=3"}"#).unwrap(),
            Request::Debug {
                id: 21,
                path: "/debug/insight?limit=3".to_owned()
            }
        );
        let e = parse_request(r#"{"type":"debug","id":22}"#).unwrap_err();
        assert_eq!((e.code, e.id), (codes::BAD_REQUEST, Some(22)));
        assert_eq!(
            parse_request(r#"{"type":"debug","path":"/metrics"}"#)
                .unwrap_err()
                .code,
            codes::BAD_REQUEST
        );
        // The per-view introspection frames are gone.
        for ty in ["stats", "metrics", "insight", "drift", "traces", "top"] {
            let line = format!(r#"{{"type":"{ty}","id":1}}"#);
            assert_eq!(parse_request(&line).unwrap_err().code, codes::BAD_REQUEST);
        }

        let body: Value = r#"{"enabled":true,"rollups":[]}"#.parse().unwrap();
        let reply = debug(21, 4, "/debug/insight", "application/json", body.clone());
        let back: Value = reply.to_string().parse().unwrap();
        assert_eq!(back.get("type").and_then(Value::as_str), Some("debug"));
        assert_eq!(back.get("epoch").and_then(Value::as_u64), Some(4));
        assert_eq!(
            back.get("path").and_then(Value::as_str),
            Some("/debug/insight")
        );
        assert_eq!(
            back.get("content_type").and_then(Value::as_str),
            Some("application/json")
        );
        assert_eq!(back.get("body"), Some(&body));
        let text = debug(5, 4, "/debug/flame", "text/plain", Value::from("a;b 3\n"));
        let line = text.to_string();
        assert!(!line.contains('\n'), "framing requires one line: {line}");
    }

    #[test]
    fn frame_trace_context_is_optional_and_round_trips() {
        // Old client: no trace field at all — parses exactly as before.
        let (req, ctx) =
            parse_frame(r#"{"type":"retrieve","id":7,"stmt":"retrieve (R.A)"}"#).unwrap();
        assert_eq!(
            req,
            Request::Retrieve {
                id: 7,
                stmt: "retrieve (R.A)".to_owned()
            }
        );
        assert!(ctx.is_none(), "absent trace field → no context");

        // New client: full context.
        let line = r#"{"type":"query","id":8,"stmt":"retrieve (R.A)","trace":{"trace_id":"000000000000000000000000000000ff","parent_span_id":"0000000000000005","sampled":false}}"#;
        let (_, ctx) = parse_frame(line).unwrap();
        assert_eq!(
            ctx,
            Some(TraceContext {
                trace_id: 0xff,
                parent_span_id: 5,
                sampled: false
            })
        );

        // Defaults: parent_span_id 0, sampled true.
        let (_, ctx) = parse_frame(r#"{"type":"ping","id":1,"trace":{"trace_id":"2a"}}"#).unwrap();
        assert_eq!(
            ctx,
            Some(TraceContext {
                trace_id: 42,
                parent_span_id: 0,
                sampled: true
            })
        );

        // Malformed contexts are rejected with the request id attached.
        let e = parse_frame(r#"{"type":"ping","id":1,"trace":{"sampled":true}}"#).unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        assert_eq!(e.id, Some(1));
        assert!(parse_frame(r#"{"type":"ping","id":1,"trace":"nope"}"#).is_err());
        assert!(
            parse_frame(r#"{"type":"ping","id":1,"trace":{"trace_id":"2a","parent_span_id":7}}"#)
                .is_err(),
            "numeric parent_span_id is rejected (hex string on the wire)"
        );
    }

    #[test]
    fn replies_echo_the_trace_id() {
        let stamped = with_trace_id(
            pong(9),
            Some(&TraceContext {
                trace_id: 0xbeef,
                parent_span_id: 0,
                sampled: true,
            }),
        );
        assert_eq!(
            stamped.get("trace_id").and_then(Value::as_str),
            Some("0000000000000000000000000000beef")
        );
        assert!(with_trace_id(pong(9), None).get("trace_id").is_none());
    }

    #[test]
    fn rejects_malformed_frames() {
        assert_eq!(
            parse_request("not json").unwrap_err().code,
            codes::BAD_FRAME
        );
        assert_eq!(parse_request("[1,2]").unwrap_err().code, codes::BAD_FRAME);
        let e = parse_request(r#"{"type":"retrieve","id":3}"#).unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        assert_eq!(e.id, Some(3), "error must carry the request id");
        assert_eq!(
            parse_request(r#"{"type":"wat","id":1}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"type":"hello"}"#).unwrap_err().code,
            codes::BAD_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"type":"hello","user":"a","group":"b"}"#)
                .unwrap_err()
                .code,
            codes::BAD_REQUEST
        );
    }

    #[test]
    fn replies_are_single_line_json() {
        let reply = rows(&RowsReply {
            id: 4,
            epoch: 2,
            cached: true,
            columns: vec!["PROJECT.NUMBER".to_owned()],
            rows: vec![
                vec![Some(RelValue::Int(17))],
                vec![Some(RelValue::Str("x\ny".to_owned())), None],
            ],
            withheld: 1,
            full_access: false,
            permits: vec!["permit ...".to_owned()],
        });
        let line = reply.to_string();
        assert!(!line.contains('\n'), "framing requires one line: {line}");
        // Round-trip: the rendered reply parses back.
        let back: Value = line.parse().unwrap();
        assert_eq!(back.get("type").and_then(Value::as_str), Some("rows"));
        assert_eq!(back.get("id").and_then(Value::as_u64), Some(4));
        assert_eq!(back.get("cached").and_then(Value::as_bool), Some(true));
        let rows_v = back.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(
            value_to_cell(&rows_v[0].as_array().unwrap()[0]).unwrap(),
            Some(RelValue::Int(17))
        );
        assert_eq!(
            value_to_cell(&rows_v[1].as_array().unwrap()[1]).unwrap(),
            None
        );
    }

    #[test]
    fn error_reply_shape() {
        let e = error(Some(5), codes::PARSE, "bad statement");
        let back: Value = e.to_string().parse().unwrap();
        assert_eq!(back.get("type").and_then(Value::as_str), Some("error"));
        assert_eq!(back.get("code").and_then(Value::as_str), Some(codes::PARSE));
        assert_eq!(back.get("id").and_then(Value::as_u64), Some(5));
    }
}
