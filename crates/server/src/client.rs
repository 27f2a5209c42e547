//! A blocking client for the wire protocol.
//!
//! One request in flight at a time: `call` writes a frame and reads
//! frames until the reply with the matching `id` (or an un-id'd
//! transport error) arrives. Pipelining is a property of the protocol,
//! not of this client — the load generator opens many clients instead.

use crate::wire::{self, codes};
use motro_authz::rel::Value as RelValue;
use motro_obs::tracectx;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server replied with an `error` frame.
    Server {
        /// One of [`wire::codes`].
        code: String,
        message: String,
    },
    /// The reply was not in the protocol's shape.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message } => write!(f, "server [{code}]: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A parsed `rows` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// The authorization epoch the mask was computed under.
    pub epoch: u64,
    /// Whether the server answered from its mask cache.
    pub cached: bool,
    pub columns: Vec<String>,
    /// Delivered rows; `None` cells are masked.
    pub rows: Vec<Vec<Option<RelValue>>>,
    pub withheld: usize,
    pub full_access: bool,
    /// Rendered inferred `permit` statements.
    pub permits: Vec<String>,
}

/// A parsed `explain` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReply {
    pub epoch: u64,
    /// The rendered [`AuthExplain`](motro_authz::core::AuthExplain).
    pub rendered: String,
}

/// A blocking connection bound to one principal.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    epoch: u64,
    /// When set, statement requests carry a freshly minted trace
    /// context head-sampled at this probability.
    trace_sample: Option<f64>,
    /// The trace id of the most recent traced request (minted locally,
    /// or echoed by the server when it minted one at the edge).
    last_trace_id: Option<u128>,
}

fn field_u64(v: &Value, key: &str) -> Result<u64, ClientError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("missing numeric {key:?} in {v}")))
}

fn field_str(v: &Value, key: &str) -> Result<String, ClientError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ClientError::Protocol(format!("missing string {key:?} in {v}")))
}

fn field_strings(v: &Value, key: &str) -> Result<Vec<String>, ClientError> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| ClientError::Protocol(format!("missing array {key:?} in {v}")))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| ClientError::Protocol(format!("non-string in {key:?}")))
        })
        .collect()
}

impl Client {
    /// Connect and bind the session to a *user* principal.
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> Result<Client, ClientError> {
        Client::handshake(addr, &format!(r#""user":{}"#, Value::from(user)))
    }

    /// Connect and bind the session to a *group* principal: the session
    /// sees exactly the views granted to the group.
    pub fn connect_group(addr: impl ToSocketAddrs, group: &str) -> Result<Client, ClientError> {
        Client::handshake(addr, &format!(r#""group":{}"#, Value::from(group)))
    }

    fn handshake(addr: impl ToSocketAddrs, who: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
            epoch: 0,
            trace_sample: None,
            last_trace_id: None,
        };
        client.send_line(&format!(r#"{{"type":"hello",{who}}}"#))?;
        let reply = client.read_reply()?;
        match reply.get("type").and_then(Value::as_str) {
            Some("welcome") => {
                client.epoch = field_u64(&reply, "epoch")?;
                Ok(client)
            }
            Some("error") => Err(ClientError::Server {
                code: field_str(&reply, "code").unwrap_or_default(),
                message: field_str(&reply, "message").unwrap_or_default(),
            }),
            _ => Err(ClientError::Protocol(format!(
                "expected welcome, got {reply}"
            ))),
        }
    }

    /// The epoch reported by the most recent reply that carried one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Mint a trace context for every subsequent statement request
    /// (`retrieve`/`query`/`profile`), head-sampled at `sample`
    /// (0.0..=1.0). `None` stops attaching contexts.
    pub fn set_trace(&mut self, sample: Option<f64>) {
        self.trace_sample = sample;
    }

    /// The trace id of the most recent traced request, as 32 hex
    /// digits. Populated by local minting ([`Client::set_trace`]) or by
    /// the server echoing the id of an edge-minted context.
    pub fn last_trace_id(&self) -> Option<String> {
        self.last_trace_id.map(tracectx::trace_id_hex)
    }

    fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_reply(&mut self) -> Result<Value, ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            return line
                .trim()
                .parse()
                .map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")));
        }
    }

    /// Send a request frame of `ty` with extra fields, await the reply
    /// with the matching id.
    fn call(&mut self, ty: &str, extra: &str) -> Result<Value, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let sep = if extra.is_empty() { "" } else { "," };
        self.send_line(&format!(r#"{{"type":"{ty}","id":{id}{sep}{extra}}}"#))?;
        loop {
            let reply = self.read_reply()?;
            let reply_id = reply.get("id").and_then(Value::as_u64);
            match reply.get("type").and_then(Value::as_str) {
                Some("error") if reply_id.is_none() || reply_id == Some(id) => {
                    return Err(ClientError::Server {
                        code: field_str(&reply, "code").unwrap_or_default(),
                        message: field_str(&reply, "message").unwrap_or_default(),
                    });
                }
                _ if reply_id == Some(id) => {
                    if let Ok(e) = field_u64(&reply, "epoch") {
                        self.epoch = e;
                    }
                    // The server echoes the trace id it handled the
                    // request under (ours, or one minted at the edge).
                    if let Some(tid) = reply
                        .get("trace_id")
                        .and_then(Value::as_str)
                        .and_then(tracectx::parse_trace_id)
                    {
                        self.last_trace_id = Some(tid);
                    }
                    return Ok(reply);
                }
                // A reply to some other (never-issued) id would be a
                // server bug; skip rather than wedge.
                _ => continue,
            }
        }
    }

    fn stmt_field(stmt: &str) -> String {
        format!(r#""stmt":{}"#, Value::from(stmt))
    }

    /// A statement field, plus a freshly minted trace context when
    /// tracing is on (recording the id for [`Client::last_trace_id`]).
    fn traced_stmt_field(&mut self, stmt: &str) -> String {
        let mut extra = Self::stmt_field(stmt);
        if let Some(sample) = self.trace_sample {
            let ctx = tracectx::mint(sample);
            self.last_trace_id = Some(ctx.trace_id);
            extra.push_str(&format!(
                r#","trace":{{"trace_id":"{}","parent_span_id":"{:016x}","sampled":{}}}"#,
                ctx.trace_id_hex(),
                ctx.parent_span_id,
                ctx.sampled,
            ));
        }
        extra
    }

    fn parse_rows(reply: &Value) -> Result<Rows, ClientError> {
        let rows = reply
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| ClientError::Protocol("rows reply without rows".to_owned()))?
            .iter()
            .map(|row| {
                row.as_array()
                    .ok_or_else(|| ClientError::Protocol("row is not an array".to_owned()))?
                    .iter()
                    .map(|c| wire::value_to_cell(c).map_err(ClientError::Protocol))
                    .collect()
            })
            .collect::<Result<Vec<Vec<Option<RelValue>>>, ClientError>>()?;
        Ok(Rows {
            epoch: field_u64(reply, "epoch")?,
            cached: reply
                .get("cached")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            columns: field_strings(reply, "columns")?,
            rows,
            withheld: field_u64(reply, "withheld")? as usize,
            full_access: reply
                .get("full_access")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            permits: field_strings(reply, "permits")?,
        })
    }

    /// A row-level retrieval.
    pub fn retrieve(&mut self, stmt: &str) -> Result<Rows, ClientError> {
        let extra = self.traced_stmt_field(stmt);
        let reply = self.call("retrieve", &extra)?;
        Self::parse_rows(&reply)
    }

    /// Any retrieval; aggregates come back rendered.
    pub fn query(&mut self, stmt: &str) -> Result<QueryReply, ClientError> {
        let extra = self.traced_stmt_field(stmt);
        let reply = self.call("query", &extra)?;
        match reply.get("type").and_then(Value::as_str) {
            Some("rows") => Ok(QueryReply::Rows(Self::parse_rows(&reply)?)),
            Some("aggregate") => Ok(QueryReply::Aggregate {
                epoch: field_u64(&reply, "epoch")?,
                rendered: field_str(&reply, "rendered")?,
            }),
            _ => Err(ClientError::Protocol(format!("unexpected reply {reply}"))),
        }
    }

    /// Run an administrative program; returns the per-statement
    /// messages.
    pub fn admin(&mut self, stmt: &str) -> Result<Vec<String>, ClientError> {
        let reply = self.call("admin", &Self::stmt_field(stmt))?;
        field_strings(&reply, "messages")
    }

    /// Run an `insert`/`delete` statement as this principal.
    pub fn update(&mut self, stmt: &str) -> Result<Vec<String>, ClientError> {
        let reply = self.call("update", &Self::stmt_field(stmt))?;
        field_strings(&reply, "messages")
    }

    /// Change group membership.
    pub fn member(&mut self, add: bool, group: &str, user: &str) -> Result<String, ClientError> {
        let extra = format!(
            r#""op":{},"group":{},"user":{}"#,
            Value::from(if add { "add" } else { "remove" }),
            Value::from(group),
            Value::from(user),
        );
        let reply = self.call("member", &extra)?;
        Ok(field_strings(&reply, "messages")?.join("; "))
    }

    /// Snapshot the server's whole state as JSON.
    pub fn save(&mut self) -> Result<String, ClientError> {
        let reply = self.call("save", "")?;
        field_str(&reply, "snapshot")
    }

    /// Run a retrieval under the profiler: the per-stage span tree
    /// (structured + rendered) plus a summary of the outcome.
    pub fn profile(&mut self, stmt: &str) -> Result<ProfileReply, ClientError> {
        let extra = self.traced_stmt_field(stmt);
        let reply = self.call("profile", &extra)?;
        match reply.get("type").and_then(Value::as_str) {
            Some("profile") => Ok(ProfileReply {
                epoch: field_u64(&reply, "epoch")?,
                tree: reply.get("tree").cloned().unwrap_or(Value::Null),
                rendered: field_str(&reply, "rendered")?,
                outcome: reply.get("outcome").cloned().unwrap_or(Value::Null),
            }),
            _ => Err(ClientError::Protocol(format!("unexpected reply {reply}"))),
        }
    }

    /// Audit a retrieval: why is each region delivered or masked?
    /// `user: None` audits this session's own principal; `Some(other)`
    /// requires the administrative capability.
    pub fn explain(&mut self, stmt: &str, user: Option<&str>) -> Result<ExplainReply, ClientError> {
        let mut extra = Self::stmt_field(stmt);
        if let Some(u) = user {
            extra.push_str(&format!(r#","user":{}"#, Value::from(u)));
        }
        let reply = self.call("explain", &extra)?;
        Ok(ExplainReply {
            epoch: field_u64(&reply, "epoch")?,
            rendered: field_str(&reply, "rendered")?,
        })
    }

    /// Fetch one introspection route (`/metrics`, `/debug/stats`,
    /// `/debug/trace?id=HEX`, …; see [`crate::debug`]): its content
    /// type and body — parsed JSON for JSON routes, a string for text
    /// routes.
    pub fn debug(&mut self, path: &str) -> Result<(String, Value), ClientError> {
        let reply = self.call("debug", &format!(r#""path":{}"#, Value::from(path)))?;
        let content_type = field_str(&reply, "content_type")?;
        match reply {
            Value::Object(mut m) => match m.remove("body") {
                Some(body) => Ok((content_type, body)),
                None => Err(ClientError::Protocol("debug reply without body".to_owned())),
            },
            other => Err(ClientError::Protocol(format!("unexpected reply {other}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call("ping", "")?;
        Ok(())
    }
}

/// The reply to [`Client::profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReply {
    pub epoch: u64,
    /// The span tree as structured JSON
    /// ([`motro_obs::ProfileNode::to_json`]).
    pub tree: Value,
    /// The span tree rendered as an indented text block.
    pub rendered: String,
    /// The underlying reply minus its bulk data (row payloads).
    pub outcome: Value,
}

/// The reply to [`Client::query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// A masked row answer.
    Rows(Rows),
    /// A rendered aggregate with its epoch.
    Aggregate { epoch: u64, rendered: String },
}

/// True when the error is the server refusing an unauthenticated
/// request (convenience for tests).
pub fn is_unauthenticated(e: &ClientError) -> bool {
    matches!(e, ClientError::Server { code, .. } if code == codes::UNAUTHENTICATED)
}
