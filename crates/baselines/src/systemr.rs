//! The System R authorization mechanism (Griffiths & Wade, TODS 1976).
//!
//! Privileges on objects (tables and views) are granted user-to-user.
//! Each grant records its grantor, timestamp, and whether it carries the
//! GRANT OPTION (the right to grant onward). Revocation is **recursive**
//! with the "as if the grant had never been made" semantics: after a
//! grant is withdrawn, every grant that is no longer *supported* — i.e.
//! whose grantor did not independently hold the privilege with grant
//! option at some strictly earlier time — is deleted, transitively.
//!
//! Views: creating a view requires SELECT on all underlying tables; the
//! creator receives SELECT on the view, with the grant option only when
//! they hold a grantable SELECT on every underlying table. The view is
//! then an independent object — and, as Motro's introduction points
//! out, an *access window*: SELECT on view V confers nothing on the
//! tables V is defined over.

use motro_rel::{CanonicalPlan, Database, RelResult, Relation};
use std::collections::BTreeMap;
use std::fmt;

/// A privilege on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Privilege {
    /// Read.
    Select,
    /// Insert rows.
    Insert,
    /// Delete rows.
    Delete,
    /// Update rows.
    Update,
}

impl Privilege {
    /// All privileges (the creator's initial set).
    pub const ALL: [Privilege; 4] = [
        Privilege::Select,
        Privilege::Insert,
        Privilege::Delete,
        Privilege::Update,
    ];
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Privilege::Select => "SELECT",
            Privilege::Insert => "INSERT",
            Privilege::Delete => "DELETE",
            Privilege::Update => "UPDATE",
        };
        write!(f, "{s}")
    }
}

/// What an object is.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectKind {
    /// A base table.
    Table,
    /// A view with its defining plan and underlying objects.
    View {
        /// The view's plan over base tables.
        plan: CanonicalPlan,
        /// Objects the view reads.
        underlying: Vec<String>,
    },
}

/// One grant record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// Who granted.
    pub grantor: String,
    /// Who received.
    pub grantee: String,
    /// Object name.
    pub object: String,
    /// The privilege.
    pub privilege: Privilege,
    /// May the grantee grant onward?
    pub grant_option: bool,
    /// Logical timestamp (monotone per store).
    pub timestamp: u64,
}

/// Errors from the System R model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemRError {
    /// The object is not in the catalog.
    UnknownObject(String),
    /// An object with this name already exists.
    DuplicateObject(String),
    /// The grantor lacks the authority for this grant.
    NotAuthorized {
        /// The failed grantor.
        user: String,
        /// The privilege they tried to grant.
        privilege: Privilege,
        /// On this object.
        object: String,
    },
    /// Revoke referenced a grant that does not exist.
    NoSuchGrant,
    /// View creation failed (missing SELECT on an underlying object).
    ViewDenied {
        /// The creator.
        user: String,
        /// The underlying object they cannot read.
        object: String,
    },
}

impl fmt::Display for SystemRError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemRError::UnknownObject(o) => write!(f, "unknown object: {o}"),
            SystemRError::DuplicateObject(o) => write!(f, "object exists: {o}"),
            SystemRError::NotAuthorized {
                user,
                privilege,
                object,
            } => write!(f, "{user} may not grant {privilege} on {object}"),
            SystemRError::NoSuchGrant => write!(f, "no such grant"),
            SystemRError::ViewDenied { user, object } => {
                write!(f, "{user} cannot read {object}, view denied")
            }
        }
    }
}

impl std::error::Error for SystemRError {}

/// The System R authorization state.
#[derive(Debug, Clone, Default)]
pub struct SystemR {
    objects: BTreeMap<String, (String, ObjectKind)>, // name → (owner, kind)
    grants: Vec<Grant>,
    clock: u64,
}

impl SystemR {
    /// An empty catalog.
    pub fn new() -> Self {
        SystemR::default()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Register a base table owned by `owner` (who receives every
    /// privilege, grantable).
    pub fn create_table(&mut self, owner: &str, name: &str) -> Result<(), SystemRError> {
        if self.objects.contains_key(name) {
            return Err(SystemRError::DuplicateObject(name.to_owned()));
        }
        self.objects
            .insert(name.to_owned(), (owner.to_owned(), ObjectKind::Table));
        Ok(())
    }

    /// Create a view: requires the creator to hold SELECT on every
    /// underlying object; the view's SELECT is grantable only when all
    /// of those are grantable.
    pub fn create_view(
        &mut self,
        owner: &str,
        name: &str,
        plan: CanonicalPlan,
    ) -> Result<(), SystemRError> {
        if self.objects.contains_key(name) {
            return Err(SystemRError::DuplicateObject(name.to_owned()));
        }
        let underlying: Vec<String> = plan.relations.clone();
        let mut grantable = true;
        for u in &underlying {
            if !self.objects.contains_key(u) {
                return Err(SystemRError::UnknownObject(u.clone()));
            }
            if !self.has_privilege(owner, u, Privilege::Select) {
                return Err(SystemRError::ViewDenied {
                    user: owner.to_owned(),
                    object: u.clone(),
                });
            }
            if !self.holds_grantable(owner, u, Privilege::Select, u64::MAX) {
                grantable = false;
            }
        }
        self.objects.insert(
            name.to_owned(),
            (owner.to_owned(), ObjectKind::View { plan, underlying }),
        );
        // The restricted grant option is recorded as a self-grant so the
        // support computation sees it uniformly.
        if !grantable {
            let t = self.tick();
            self.grants.push(Grant {
                grantor: owner.to_owned(),
                grantee: owner.to_owned(),
                object: name.to_owned(),
                privilege: Privilege::Select,
                grant_option: false,
                timestamp: t,
            });
        }
        Ok(())
    }

    /// Is `user` the owner of `object`?
    pub fn is_owner(&self, user: &str, object: &str) -> bool {
        self.objects
            .get(object)
            .map(|(o, _)| o == user)
            .unwrap_or(false)
    }

    /// The object's kind.
    pub fn object_kind(&self, object: &str) -> Result<&ObjectKind, SystemRError> {
        self.objects
            .get(object)
            .map(|(_, k)| k)
            .ok_or_else(|| SystemRError::UnknownObject(object.to_owned()))
    }

    /// Does `user` hold `privilege` on `object` (as owner or grantee)?
    pub fn has_privilege(&self, user: &str, object: &str, privilege: Privilege) -> bool {
        if self.is_owner(user, object) {
            // An owner's view privileges may be restricted (non-grantable
            // SELECT recorded as a self-grant); ownership still implies
            // the privilege itself.
            return true;
        }
        self.grants
            .iter()
            .any(|g| g.grantee == user && g.object == object && g.privilege == privilege)
    }

    /// Does `user` hold a grantable `privilege` on `object` strictly
    /// before `time`?
    fn holds_grantable(&self, user: &str, object: &str, privilege: Privilege, time: u64) -> bool {
        if self.is_owner(user, object) {
            // Owner authority is timeless; for views with restricted
            // SELECT a non-grantable self-grant exists and wins.
            let restricted = self.grants.iter().any(|g| {
                g.grantor == user
                    && g.grantee == user
                    && g.object == object
                    && g.privilege == privilege
                    && !g.grant_option
            });
            return !restricted;
        }
        self.grants.iter().any(|g| {
            g.grantee == user
                && g.object == object
                && g.privilege == privilege
                && g.grant_option
                && g.timestamp < time
        })
    }

    /// Grant `privilege` on `object` from `grantor` to `grantee`.
    pub fn grant(
        &mut self,
        grantor: &str,
        grantee: &str,
        object: &str,
        privilege: Privilege,
        grant_option: bool,
    ) -> Result<(), SystemRError> {
        if !self.objects.contains_key(object) {
            return Err(SystemRError::UnknownObject(object.to_owned()));
        }
        let t = self.tick();
        if !self.holds_grantable(grantor, object, privilege, t) {
            return Err(SystemRError::NotAuthorized {
                user: grantor.to_owned(),
                privilege,
                object: object.to_owned(),
            });
        }
        self.grants.push(Grant {
            grantor: grantor.to_owned(),
            grantee: grantee.to_owned(),
            object: object.to_owned(),
            privilege,
            grant_option,
            timestamp: t,
        });
        Ok(())
    }

    /// Revoke `grantor`'s grant(s) of `privilege` on `object` to
    /// `grantee`, then delete every grant no longer supported — the
    /// Griffiths–Wade "as if never granted" semantics.
    pub fn revoke(
        &mut self,
        grantor: &str,
        grantee: &str,
        object: &str,
        privilege: Privilege,
    ) -> Result<usize, SystemRError> {
        let before = self.grants.len();
        self.grants.retain(|g| {
            !(g.grantor == grantor
                && g.grantee == grantee
                && g.object == object
                && g.privilege == privilege)
        });
        if self.grants.len() == before {
            return Err(SystemRError::NoSuchGrant);
        }
        // Fixpoint: delete grants whose grantor no longer holds a
        // grantable privilege from strictly earlier.
        loop {
            let snapshot = self.clone();
            let before = self.grants.len();
            self.grants.retain(|g| {
                snapshot.holds_grantable(&g.grantor, &g.object, g.privilege, g.timestamp)
                    || (g.grantor == g.grantee && snapshot.is_owner(&g.grantor, &g.object))
            });
            if self.grants.len() == before {
                break;
            }
        }
        Ok(before - self.grants.len())
    }

    /// All current grants (for inspection/tests).
    pub fn grants(&self) -> &[Grant] {
        &self.grants
    }

    /// **The all-or-nothing query check**: `user` may run a query iff
    /// they hold SELECT on *every* object it references. No partial
    /// answers, no masking — the behavior Motro's Section 1 contrasts
    /// with.
    pub fn authorize_query(&self, user: &str, objects: &[&str]) -> bool {
        objects
            .iter()
            .all(|o| self.has_privilege(user, o, Privilege::Select))
    }

    /// Execute a query addressed at a *view*: the view's plan runs, then
    /// the caller's projection applies over the view's output columns.
    /// Requires SELECT on the view (only).
    pub fn execute_view_query(
        &self,
        db: &Database,
        user: &str,
        view: &str,
        projection: &[usize],
    ) -> Result<Option<Relation>, SystemRError> {
        let kind = self.object_kind(view)?.clone();
        let ObjectKind::View { plan, .. } = kind else {
            return Err(SystemRError::UnknownObject(format!("{view} is not a view")));
        };
        if !self.has_privilege(user, view, Privilege::Select) {
            return Ok(None);
        }
        let out: RelResult<Relation> = (|| {
            let v = plan.execute(db)?;
            Ok(motro_rel::algebra::project(&v, projection))
        })();
        Ok(Some(out.map_err(|_| {
            SystemRError::UnknownObject(view.to_owned())
        })?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motro_rel::Predicate;

    fn base() -> SystemR {
        let mut s = SystemR::new();
        s.create_table("admin", "EMPLOYEE").unwrap();
        s.create_table("admin", "PROJECT").unwrap();
        s
    }

    #[test]
    fn owner_has_all_privileges() {
        let s = base();
        for p in Privilege::ALL {
            assert!(s.has_privilege("admin", "EMPLOYEE", p));
        }
        assert!(!s.has_privilege("alice", "EMPLOYEE", Privilege::Select));
    }

    #[test]
    fn grant_chain_and_delegation() {
        let mut s = base();
        s.grant("admin", "alice", "EMPLOYEE", Privilege::Select, true)
            .unwrap();
        s.grant("alice", "bob", "EMPLOYEE", Privilege::Select, false)
            .unwrap();
        assert!(s.has_privilege("bob", "EMPLOYEE", Privilege::Select));
        // Bob has no grant option → cannot grant onward.
        assert!(matches!(
            s.grant("bob", "carol", "EMPLOYEE", Privilege::Select, false),
            Err(SystemRError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn recursive_revoke_cascades() {
        let mut s = base();
        s.grant("admin", "alice", "EMPLOYEE", Privilege::Select, true)
            .unwrap();
        s.grant("alice", "bob", "EMPLOYEE", Privilege::Select, true)
            .unwrap();
        s.grant("bob", "carol", "EMPLOYEE", Privilege::Select, false)
            .unwrap();
        s.revoke("admin", "alice", "EMPLOYEE", Privilege::Select)
            .unwrap();
        assert!(!s.has_privilege("alice", "EMPLOYEE", Privilege::Select));
        assert!(!s.has_privilege("bob", "EMPLOYEE", Privilege::Select));
        assert!(!s.has_privilege("carol", "EMPLOYEE", Privilege::Select));
    }

    #[test]
    fn revoke_respects_independent_earlier_path() {
        let mut s = base();
        // Two independent grantable paths to bob; revoking one leaves
        // bob's onward grant supported by the earlier other.
        s.grant("admin", "alice", "EMPLOYEE", Privilege::Select, true)
            .unwrap();
        s.grant("admin", "bob", "EMPLOYEE", Privilege::Select, true)
            .unwrap(); // t earlier than alice→bob below
        s.grant("alice", "bob", "EMPLOYEE", Privilege::Select, true)
            .unwrap();
        s.grant("bob", "carol", "EMPLOYEE", Privilege::Select, false)
            .unwrap();
        s.revoke("alice", "bob", "EMPLOYEE", Privilege::Select)
            .unwrap();
        assert!(s.has_privilege("bob", "EMPLOYEE", Privilege::Select));
        assert!(s.has_privilege("carol", "EMPLOYEE", Privilege::Select));
    }

    #[test]
    fn revoke_kills_later_unsupported_regrant() {
        let mut s = base();
        s.grant("admin", "alice", "EMPLOYEE", Privilege::Select, true)
            .unwrap(); // t=1
        s.grant("alice", "bob", "EMPLOYEE", Privilege::Select, true)
            .unwrap(); // t=2
        s.grant("bob", "carol", "EMPLOYEE", Privilege::Select, false)
            .unwrap(); // t=3 — supported only via alice (t=2)
        s.grant("admin", "bob", "EMPLOYEE", Privilege::Select, true)
            .unwrap(); // t=4 — later than bob→carol!
        s.revoke("admin", "alice", "EMPLOYEE", Privilege::Select)
            .unwrap();
        // Bob still holds SELECT (t=4 path) but bob→carol (t=3) predates
        // it → deleted per Griffiths–Wade.
        assert!(s.has_privilege("bob", "EMPLOYEE", Privilege::Select));
        assert!(!s.has_privilege("carol", "EMPLOYEE", Privilege::Select));
    }

    #[test]
    fn revoke_missing_grant_errors() {
        let mut s = base();
        assert!(matches!(
            s.revoke("admin", "alice", "EMPLOYEE", Privilege::Select),
            Err(SystemRError::NoSuchGrant)
        ));
    }

    #[test]
    fn all_or_nothing_query_check() {
        let mut s = base();
        s.grant("admin", "alice", "EMPLOYEE", Privilege::Select, false)
            .unwrap();
        assert!(s.authorize_query("alice", &["EMPLOYEE"]));
        // Touching PROJECT too → rejected outright.
        assert!(!s.authorize_query("alice", &["EMPLOYEE", "PROJECT"]));
    }

    #[test]
    fn view_is_an_access_window() {
        let mut s = base();
        let plan = CanonicalPlan {
            relations: vec!["EMPLOYEE".into(), "PROJECT".into()],
            selection: Predicate::always(),
            projection: vec![0, 3],
        };
        s.create_view("admin", "V", plan).unwrap();
        s.grant("admin", "alice", "V", Privilege::Select, false)
            .unwrap();
        // Alice may query V…
        assert!(s.authorize_query("alice", &["V"]));
        // …but not the underlying tables — Motro's Section 1 critique.
        assert!(!s.authorize_query("alice", &["EMPLOYEE"]));
        assert!(!s.authorize_query("alice", &["PROJECT"]));
    }

    #[test]
    fn view_requires_underlying_select() {
        let mut s = base();
        let plan = CanonicalPlan {
            relations: vec!["EMPLOYEE".into()],
            selection: Predicate::always(),
            projection: vec![0],
        };
        assert!(matches!(
            s.create_view("alice", "V", plan),
            Err(SystemRError::ViewDenied { .. })
        ));
    }

    #[test]
    fn view_grant_option_restricted_without_grantable_underlying() {
        let mut s = base();
        s.grant("admin", "alice", "EMPLOYEE", Privilege::Select, false)
            .unwrap();
        let plan = CanonicalPlan {
            relations: vec!["EMPLOYEE".into()],
            selection: Predicate::always(),
            projection: vec![0],
        };
        s.create_view("alice", "V", plan).unwrap();
        // Alice can read her view but cannot grant it onward.
        assert!(s.has_privilege("alice", "V", Privilege::Select));
        assert!(matches!(
            s.grant("alice", "bob", "V", Privilege::Select, false),
            Err(SystemRError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn execute_view_query_masks_nothing_within_window() {
        use motro_rel::{tuple, Database, DbSchema, Domain};
        let mut scheme = DbSchema::new();
        scheme
            .add_relation(
                "EMPLOYEE",
                &[("NAME", Domain::Str), ("SALARY", Domain::Int)],
            )
            .unwrap();
        let mut db = Database::new(scheme);
        db.insert("EMPLOYEE", tuple!["Jones", 26_000]).unwrap();
        let mut s = SystemR::new();
        s.create_table("admin", "EMPLOYEE").unwrap();
        let plan = CanonicalPlan {
            relations: vec!["EMPLOYEE".into()],
            selection: Predicate::always(),
            projection: vec![0],
        };
        s.create_view("admin", "NAMES", plan).unwrap();
        s.grant("admin", "alice", "NAMES", Privilege::Select, false)
            .unwrap();
        let out = s
            .execute_view_query(&db, "alice", "NAMES", &[0])
            .unwrap()
            .unwrap();
        assert_eq!(out.len(), 1);
        // Bob has no grant → None (rejected).
        assert!(s
            .execute_view_query(&db, "bob", "NAMES", &[0])
            .unwrap()
            .is_none());
    }
}
