//! # motro-authz
//!
//! A complete reproduction of *An Access Authorization Model for
//! Relational Databases Based on Algebraic Manipulation of View
//! Definitions* (Amihai Motro, ICDE 1989).
//!
//! This umbrella crate re-exports the workspace and provides the
//! **front-end interface** the paper's Section 6 promises: users define
//! access with `permit` statements, the system inserts the meta-tuples
//! automatically, and every `retrieve` returns a derived relation whose
//! tuples include only permitted values plus a set of inferred `permit`
//! statements — the meta-relation machinery is completely transparent.
//!
//! ```
//! use motro_authz::Frontend;
//! use motro_authz::core::fixtures;
//!
//! // The paper's Figure 1 database scheme.
//! let mut fe = Frontend::new(fixtures::paper_scheme());
//! fe.database_mut().insert("PROJECT",
//!     motro_authz::rel::tuple!["bq-45", "Acme", 300_000]).unwrap();
//! fe.database_mut().insert("PROJECT",
//!     motro_authz::rel::tuple!["sv-72", "Apex", 450_000]).unwrap();
//!
//! // Define a view and grant it — plain statements, per the paper.
//! fe.execute_admin("view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
//!                   where PROJECT.SPONSOR = Acme").unwrap();
//! fe.execute_admin("permit PSA to Brown").unwrap();
//!
//! // Example 1: Brown asks for all large projects; only the Acme one
//! // is delivered, with an inferred permit statement.
//! let out = fe.retrieve("Brown",
//!     "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)
//!      where PROJECT.BUDGET >= 250,000").unwrap();
//! assert_eq!(out.masked.len(), 1);
//! assert_eq!(out.permits[0].to_string(),
//!            "permit (NUMBER, SPONSOR) where SPONSOR = Acme");
//! ```

#![warn(missing_docs)]

pub mod concurrent;
mod snapshot;

pub use concurrent::SharedFrontend;
pub use motro_baselines as baselines;
pub use motro_core as core;
pub use motro_lang as lang;
pub use motro_mat as mat;
pub use motro_obs as obs;
pub use motro_rel as rel;
pub use motro_views as views;

use motro_core::{
    AccessOutcome, AggregateOutcome, AuthExplain, AuthStore, AuthorizedEngine, CoreError,
    RefinementConfig,
};
use motro_lang::{parse_program, parse_statement, ParseError, Principal, Statement};
use motro_rel::{Database, DbSchema, ExecConfig, RelError};
use std::fmt;

/// Errors surfaced by the front-end.
#[derive(Debug)]
pub enum FrontendError {
    /// The statement did not parse.
    Parse(ParseError),
    /// The authorization core rejected the statement.
    Core(CoreError),
    /// The relational engine rejected the statement.
    Rel(RelError),
    /// The statement kind is not valid in this position (e.g. a `view`
    /// definition passed to [`Frontend::retrieve`]).
    Unexpected(String),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "{e}"),
            FrontendError::Core(e) => write!(f, "{e}"),
            FrontendError::Rel(e) => write!(f, "{e}"),
            FrontendError::Unexpected(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<CoreError> for FrontendError {
    fn from(e: CoreError) -> Self {
        FrontendError::Core(e)
    }
}

impl From<RelError> for FrontendError {
    fn from(e: RelError) -> Self {
        FrontendError::Rel(e)
    }
}

/// The result of [`Frontend::query`]: row-level or aggregate.
#[derive(Debug, Clone)]
pub enum RetrieveOutcome {
    /// A masked row answer with inferred permit statements.
    Rows(Box<AccessOutcome>),
    /// A grouped aggregate with its authorization provenance.
    Aggregate(AggregateOutcome),
}

impl RetrieveOutcome {
    /// Render the user-visible output.
    pub fn render(&self) -> String {
        match self {
            RetrieveOutcome::Rows(o) => o.render(),
            RetrieveOutcome::Aggregate(o) => o.render(),
        }
    }
}

/// The Section 6 front-end: a database, an authorization store, and a
/// statement interface over both.
#[derive(Debug, Clone)]
pub struct Frontend {
    /// The base relations.
    db: Database,
    /// The authorization state: the paper's Section 3 relations.
    store: AuthStore,
    /// The refinements the engine runs with; persisted with the store.
    config: RefinementConfig,
    /// Executor policy for the partitioned mask pipeline, read from the
    /// environment. It never changes results, so it is part of neither
    /// the snapshot nor the authorization epoch.
    exec: ExecConfig,
}

impl Frontend {
    /// A fresh front-end over `scheme` with the paper-faithful
    /// refinement configuration.
    pub fn new(scheme: DbSchema) -> Self {
        Frontend {
            db: Database::new(scheme.clone()),
            store: AuthStore::new(scheme),
            config: RefinementConfig::default(),
            exec: ExecConfig::from_env(),
        }
    }

    /// Build from an existing database instance.
    pub fn with_database(db: Database) -> Self {
        let store = AuthStore::new(db.schema().clone());
        Frontend {
            db,
            store,
            config: RefinementConfig::default(),
            exec: ExecConfig::from_env(),
        }
    }

    /// Override the refinement configuration. Advances the
    /// authorization epoch: the configuration changes which masks the
    /// engine computes, so cached masks must not outlive it.
    pub fn set_config(&mut self, config: RefinementConfig) {
        self.config = config;
        self.store.bump_epoch();
    }

    /// Override the executor configuration (worker threads for the
    /// partitioned mask pipeline). Unlike [`Frontend::set_config`] this
    /// does *not* advance the authorization epoch: the executor is
    /// guaranteed to produce byte-identical masks at any worker count,
    /// so cached masks stay valid.
    pub fn set_exec_config(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// The active executor configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// The current authorization epoch (see
    /// [`motro_core::AuthStore::auth_epoch`]): bumped by every `view`,
    /// `permit`, `revoke`, and group-membership mutation. A mask for
    /// `(user, plan)` computed at epoch `e` is valid exactly while
    /// `auth_epoch() == e`.
    pub fn auth_epoch(&self) -> u64 {
        self.store.auth_epoch()
    }

    /// Drain the touched-set accumulated by mutations since the last
    /// call (see [`motro_core::AuthStore::take_touched`]): the precise
    /// users, groups, views, and relations changed, or
    /// [`mat::Touched::All`] after an out-of-band change. Mask caches
    /// pair this with [`Frontend::auth_epoch`] for dependency-tracked
    /// invalidation.
    pub fn take_touched(&mut self) -> motro_mat::Touched {
        self.store.take_touched()
    }

    /// Mutable access to the database (loading data is an administrator
    /// action outside the authorization model).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Read access to the database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Read access to the authorization store.
    pub fn auth_store(&self) -> &AuthStore {
        &self.store
    }

    /// Mutable access to the authorization store, for administrative
    /// operations with no surface statement in the paper (e.g. dropping
    /// a view).
    pub fn auth_store_mut(&mut self) -> &mut AuthStore {
        &mut self.store
    }

    fn run_admin(&mut self, stmt: Statement) -> Result<String, FrontendError> {
        match stmt {
            Statement::View(q) => {
                let name = q.name.clone().unwrap_or_default();
                self.store.define_view(&q)?;
                Ok(format!("view {name} defined"))
            }
            Statement::ViewUnion { name, branches } => {
                let n = branches.len();
                self.store.define_view_union(&name, &branches)?;
                Ok(format!("view {name} defined ({n} branches)"))
            }
            Statement::AggregateView(q) => {
                let name = q.base.name.clone().unwrap_or_default();
                self.store.define_aggregate_view(&q)?;
                Ok(format!("aggregate view {name} defined"))
            }
            Statement::Permit { view, principal } => match principal {
                Principal::User(user) => {
                    self.store.permit(&view, &user)?;
                    Ok(format!("permitted {view} to {user}"))
                }
                Principal::Group(group) => {
                    self.store.permit_group(&view, &group)?;
                    Ok(format!("permitted {view} to group {group}"))
                }
            },
            Statement::Revoke { view, principal } => match principal {
                Principal::User(user) => {
                    self.store.revoke(&view, &user)?;
                    Ok(format!("revoked {view} from {user}"))
                }
                Principal::Group(group) => {
                    self.store.revoke_group(&view, &group)?;
                    Ok(format!("revoked {view} from group {group}"))
                }
            },
            Statement::Retrieve(_) | Statement::RetrieveAggregate(_) => {
                Err(FrontendError::Unexpected(
                    "retrieve statements go through Frontend::retrieve with a user".to_owned(),
                ))
            }
            Statement::Insert { .. } | Statement::Delete { .. } => Err(FrontendError::Unexpected(
                "updates go through Frontend::execute_update with a user".to_owned(),
            )),
        }
    }

    /// Execute one administrative statement: `view …`, `permit … to …`,
    /// or `revoke … from …`. Returns a confirmation line.
    pub fn execute_admin(&mut self, stmt: &str) -> Result<String, FrontendError> {
        let stmt = parse_statement(stmt)?;
        self.run_admin(stmt)
    }

    /// Execute a whole `;`-separated administrative program.
    pub fn execute_admin_program(&mut self, src: &str) -> Result<Vec<String>, FrontendError> {
        let stmts = parse_program(src)?;
        stmts.into_iter().map(|s| self.run_admin(s)).collect()
    }

    /// Execute a `retrieve` statement on behalf of `user`, returning the
    /// masked answer and inferred permit statements.
    pub fn retrieve(&self, user: &str, stmt: &str) -> Result<AccessOutcome, FrontendError> {
        match self.query(user, stmt)? {
            RetrieveOutcome::Rows(out) => Ok(*out),
            RetrieveOutcome::Aggregate(_) => Err(FrontendError::Unexpected(
                "aggregate statement: use Frontend::query".to_owned(),
            )),
        }
    }

    /// Execute any `retrieve` statement — row-level or aggregate — on
    /// behalf of `user`.
    pub fn query(&self, user: &str, stmt: &str) -> Result<RetrieveOutcome, FrontendError> {
        let engine = self.engine();
        let parsed = {
            let _stage = motro_obs::profile::stage("parse");
            parse_statement(stmt)?
        };
        match parsed {
            Statement::Retrieve(q) => {
                Ok(RetrieveOutcome::Rows(Box::new(engine.retrieve(user, &q)?)))
            }
            Statement::RetrieveAggregate(q) => Ok(RetrieveOutcome::Aggregate(
                engine.retrieve_aggregate(user, &q)?,
            )),
            _ => Err(FrontendError::Unexpected(
                "expected a retrieve statement".to_owned(),
            )),
        }
    }

    /// Audit a `retrieve` statement for `user` without delivering the
    /// answer: returns the full [`AuthExplain`] — candidate meta-tuples,
    /// per-atom R2 decisions, the surviving mask, and cell-by-cell
    /// grant/denial reasons. Masked values are never included.
    pub fn explain_query(&self, user: &str, stmt: &str) -> Result<AuthExplain, FrontendError> {
        let engine = self.engine();
        match parse_statement(stmt)? {
            Statement::Retrieve(q) => Ok(engine.explain(user, &q)?),
            _ => Err(FrontendError::Unexpected(
                "expected a retrieve statement".to_owned(),
            )),
        }
    }

    /// Add a user to a group (groups receive grants via
    /// `permit V to group G`).
    pub fn add_member(&mut self, group: &str, user: &str) {
        self.store.add_member(group, user);
    }

    /// Snapshot the entire front-end state (data, views, grants,
    /// refinement configuration, epoch) as one JSON document of
    /// relations: the base relations plus the paper's Section 3
    /// authorization relations (see `core::storage`).
    pub fn to_json(&self) -> Result<String, FrontendError> {
        snapshot::encode(self)
    }

    /// Restore a front-end from [`Frontend::to_json`] output. The
    /// restored state renders every mask byte for byte as the saved one
    /// did; the executor configuration comes from the environment, as in
    /// [`Frontend::new`]. Malformed input is an error, never a panic.
    pub fn from_json(json: &str) -> Result<Frontend, FrontendError> {
        snapshot::decode(json)
    }

    /// Execute an `insert into …` or `delete from …` statement on
    /// behalf of `user`, checked against their masks (the Section 6
    /// update extension). Deletions are *reduced* to the permitted
    /// tuples, in the spirit of the retrieval model; an insert outside
    /// the user's views is denied outright.
    pub fn execute_update(&mut self, user: &str, stmt: &str) -> Result<String, FrontendError> {
        match parse_statement(stmt)? {
            Statement::Insert { rel, values } => {
                let tuple = motro_rel::Tuple::new(values);
                // Type-check before the permission check so schema
                // errors surface as such.
                tuple
                    .check_against(self.db.schema().schema_of(&rel)?)
                    .map_err(FrontendError::Rel)?;
                let allowed = {
                    let engine = self.engine();
                    motro_core::update::check_insert(&engine, user, &rel, &tuple)?
                };
                if !allowed {
                    return Err(FrontendError::Unexpected(format!(
                        "insert into {rel} denied: the row is outside {user}'s views"
                    )));
                }
                let new = self.db.insert(&rel, tuple)?;
                Ok(if new {
                    format!("inserted 1 row into {rel}")
                } else {
                    format!("row already present in {rel}")
                })
            }
            Statement::Delete { rel, atoms } => {
                // Matching tuples = single-relation retrieval of every
                // attribute.
                let schema = self.db.schema().schema_of(&rel)?.clone();
                let query = motro_views::ConjunctiveQuery {
                    name: None,
                    targets: (0..schema.arity())
                        .map(|i| motro_views::AttrRef::new(&rel, &schema.column(i).qual.attr))
                        .collect(),
                    atoms,
                };
                // The reply counts only deleted rows: how many matching
                // rows lie outside the user's views is itself hidden.
                let permitted = {
                    let engine = self.engine();
                    let plan = motro_views::compile(&query, self.db.schema())?;
                    let mut ok = Vec::new();
                    for t in plan.execute(&self.db)?.rows() {
                        if motro_core::update::check_delete(&engine, user, &rel, t)? {
                            ok.push(t.clone());
                        }
                    }
                    ok
                };
                let mut deleted = 0usize;
                for t in &permitted {
                    if self.db.delete(&rel, t)? {
                        deleted += 1;
                    }
                }
                Ok(format!("deleted {deleted} row(s) from {rel}"))
            }
            _ => Err(FrontendError::Unexpected(
                "expected an insert or delete statement".to_owned(),
            )),
        }
    }

    /// An engine borrowing this front-end's state (refinement and
    /// executor configuration included).
    pub fn engine(&self) -> AuthorizedEngine<'_> {
        AuthorizedEngine::with_exec(&self.db, &self.store, self.config, self.exec)
    }
}
