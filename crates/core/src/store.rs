//! The authorization store: meta-relations, `COMPARISON`, `PERMISSION`.
//!
//! [`AuthStore`] owns everything Section 3 adds to the database:
//!
//! * one [`MetaRelation`] `R'` per base relation `R`, holding the stored
//!   meta-tuples of every defined view;
//! * the `COMPARISON` relation (view-scoped non-equality comparisons) —
//!   held both as rows for display and attached tuple-locally to the
//!   meta-tuples that mention each variable;
//! * the `PERMISSION` relation (user, view);
//! * the stored self-join combinations of refinement R3 ("once
//!   generated, they should be stored with the original view
//!   definitions, until these definitions are modified" — the store
//!   regenerates them whenever a view is defined or dropped).
//!
//! Views are registered from their surface statements via
//! [`AuthStore::define_view`]; the §3 normalization and meta-tuple
//! encoding are applied automatically, fulfilling the paper's §6 promise
//! that "the system will insert automatically the appropriate
//! meta-tuples into the meta-relations", keeping the notation fully
//! transparent to users.

use crate::constraint::{ConstraintAtom, ConstraintSet, Rhs};
use crate::error::{CoreError, CoreResult};
use crate::metarel::{render_table, MetaRelation};
use crate::metatuple::{MetaCell, MetaTuple, TupleId, VarId};
use crate::selfjoin;
use motro_mat::{Dep, DepSet, Touched};
use motro_rel::{DbSchema, Relation};
use motro_views::{normalize, CompRhs, ConjunctiveQuery, NormalizedView, VarTerm};
use std::collections::{BTreeMap, BTreeSet};

/// Bookkeeping for one conjunctive branch of a view. A plain
/// conjunctive view has exactly one branch; a *disjunctive* view (the
/// Section 6 extension: "the current methods can be extended to handle
/// views with disjunctions") stores one branch per disjunct, each with
/// its own meta-tuples and variables.
#[derive(Debug, Clone)]
pub struct BranchEntry {
    /// The branch's surface statement.
    pub definition: ConjunctiveQuery,
    /// Relations in which this branch stores meta-tuples.
    pub relations: BTreeSet<String>,
    /// Ids of the branch's stored meta-tuples.
    pub tuple_ids: BTreeSet<TupleId>,
    /// The branch's (globally renumbered) comparison atoms.
    pub comparisons: Vec<ConstraintAtom>,
}

/// Bookkeeping for one defined view: its conjunctive branches.
#[derive(Debug, Clone)]
pub struct ViewEntry {
    /// The branches (one for a plain conjunctive view).
    pub branches: Vec<BranchEntry>,
}

impl ViewEntry {
    /// The first branch's statement (the whole statement for plain
    /// conjunctive views).
    pub fn definition(&self) -> &ConjunctiveQuery {
        &self.branches[0].definition
    }

    /// Every meta-tuple id across all branches.
    pub fn all_tuple_ids(&self) -> BTreeSet<TupleId> {
        self.branches
            .iter()
            .flat_map(|b| b.tuple_ids.iter().copied())
            .collect()
    }
}

/// The meta-relations, `COMPARISON`, `PERMISSION`, and stored self-joins.
#[derive(Debug, Clone)]
pub struct AuthStore {
    scheme: DbSchema,
    views: BTreeMap<String, ViewEntry>,
    meta: BTreeMap<String, MetaRelation>,
    selfjoins: BTreeMap<String, Vec<MetaTuple>>,
    aggregate_views: BTreeMap<String, motro_views::AggregateQuery>,
    permissions: BTreeSet<(String, String)>,
    group_permissions: BTreeSet<(String, String)>,
    membership: BTreeMap<String, BTreeSet<String>>,
    var_home: BTreeMap<VarId, BTreeSet<TupleId>>,
    next_tuple: TupleId,
    next_var: VarId,
    selfjoin_rounds: usize,
    /// The authorization epoch: a monotone counter bumped by every
    /// mutation that can change an authorization decision (view
    /// definitions, grants, revocations, group membership, refinement
    /// settings). A mask computed for `(user, plan)` is a pure function
    /// of the store state, so it stays valid exactly while the epoch
    /// does not move — the invariant external mask caches rely on.
    epoch: u64,
    /// The authorization objects changed since the last
    /// [`AuthStore::take_touched`]: each mutation reports the precise
    /// users/groups/views/relations it affected, so external mask
    /// caches can invalidate only the entries derived from them.
    /// Direct [`AuthStore::bump_epoch`] calls degrade the batch to
    /// [`Touched::All`] (the old invalidate-everything behaviour).
    /// Runtime bookkeeping, never stored.
    touched: Touched,
}

impl AuthStore {
    /// An empty store over `scheme`: one empty meta-relation per base
    /// relation.
    pub fn new(scheme: DbSchema) -> Self {
        let meta = scheme
            .iter()
            .map(|(n, d)| (n.clone(), MetaRelation::new(n, d.schema.clone())))
            .collect();
        AuthStore {
            scheme,
            views: BTreeMap::new(),
            meta,
            selfjoins: BTreeMap::new(),
            aggregate_views: BTreeMap::new(),
            permissions: BTreeSet::new(),
            group_permissions: BTreeSet::new(),
            membership: BTreeMap::new(),
            var_home: BTreeMap::new(),
            next_tuple: 1,
            next_var: 1,
            selfjoin_rounds: 1,
            epoch: 0,
            touched: Touched::default(),
        }
    }

    /// The current authorization epoch. Monotonically increasing; any
    /// change means previously computed masks may no longer reflect the
    /// store and must be recomputed.
    pub fn auth_epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the authorization epoch, invalidating externally cached
    /// masks. Every mutating method of the store calls this itself;
    /// call it directly only after out-of-band changes that affect
    /// authorization decisions (e.g. swapping the refinement
    /// configuration an engine will run with). Returns the new epoch.
    ///
    /// A direct call reports [`Touched::All`]: the caller is telling us
    /// something out-of-band changed, so the only safe answer is to
    /// invalidate every cached mask. The store's own mutators instead
    /// go through [`AuthStore::bump_epoch_touching`] with a precise
    /// touched-set.
    pub fn bump_epoch(&mut self) -> u64 {
        self.touched.record_all();
        self.epoch += 1;
        self.epoch
    }

    /// Advance the epoch while reporting precisely which authorization
    /// objects the mutation changed.
    fn bump_epoch_touching(&mut self, deps: impl IntoIterator<Item = Dep>) -> u64 {
        self.touched.record(deps);
        self.epoch += 1;
        self.epoch
    }

    /// Drain the touched-set accumulated since the previous call (or
    /// since construction). Pairs with [`AuthStore::auth_epoch`]: the
    /// returned batch describes every mutation up to the current epoch,
    /// so a cache that invalidates the batch at that epoch is exactly
    /// as fresh as one that recomputed everything.
    pub fn take_touched(&mut self) -> Touched {
        self.touched.take()
    }

    /// The dependency provenance of a mask computed *now* for `user`
    /// over a plan referencing `query_rels`: every authorization object
    /// the pipeline reads while deriving it. A mask cache stores this
    /// alongside the entry and drops the entry whenever a mutation's
    /// touched-set intersects it.
    ///
    /// The set contains the principal itself, each group the principal
    /// currently belongs to (group grants reach the mask through
    /// [`AuthStore::permitted_views`]), each relation the plan ranges
    /// over (view DDL reports the relations its branches store
    /// meta-tuples in), and each granted view with at least one branch
    /// usable for the plan (the Section 5 in-their-entirety pruning:
    /// only those views' meta-tuples can appear among the candidates).
    /// View-over-view chains need no special casing — a stored view is
    /// always flattened to base relations at definition time, so the
    /// relation footprint already names everything the mask can see.
    pub fn mask_dependencies(&self, user: &str, query_rels: &BTreeSet<String>) -> DepSet {
        let mut deps = DepSet::new();
        deps.insert(Dep::user(user));
        if let Some(group) = user.strip_prefix("group:") {
            // A `group:G` principal reads G's grants directly.
            deps.insert(Dep::group(group));
        }
        for g in self.groups_of(user) {
            deps.insert(Dep::group(g));
        }
        for rel in query_rels {
            deps.insert(Dep::relation(rel));
        }
        for vname in self.permitted_views(user) {
            if let Some(entry) = self.views.get(vname) {
                if entry
                    .branches
                    .iter()
                    .any(|b| b.relations.iter().all(|r| query_rels.contains(r)))
                {
                    deps.insert(Dep::view(vname));
                }
            }
        }
        deps
    }

    /// Set how many self-join combination rounds refinement R3 runs
    /// (1 = pairs, the paper's formulation and the default; higher
    /// values also build triples, quadruples, ...). Regenerates the
    /// stored combinations.
    pub fn set_selfjoin_rounds(&mut self, rounds: usize) {
        self.selfjoin_rounds = rounds;
        self.regenerate_selfjoins();
        self.bump_epoch();
    }

    /// The database scheme the store was built over.
    pub fn scheme(&self) -> &DbSchema {
        &self.scheme
    }

    /// Define a view from its surface statement (must be named).
    ///
    /// Normalizes per Section 3, renumbers the view's variables into the
    /// store's global space, inserts the meta-tuples and `COMPARISON`
    /// entries, and regenerates stored self-joins.
    pub fn define_view(&mut self, q: &ConjunctiveQuery) -> CoreResult<()> {
        let name = q
            .name
            .clone()
            .ok_or_else(|| CoreError::Internal("view statement must be named".to_owned()))?;
        self.define_view_union(&name, std::slice::from_ref(q))
    }

    /// Define a *disjunctive* view as a union of conjunctive branches
    /// (the Section 6 extension). Each branch is normalized and stored
    /// independently under the same view name; masks take the union of
    /// the branches naturally. A query may use any branch that is
    /// defined entirely within the query's relations.
    pub fn define_view_union(
        &mut self,
        name: &str,
        branches: &[ConjunctiveQuery],
    ) -> CoreResult<()> {
        if self.views.contains_key(name) {
            return Err(CoreError::DuplicateView(name.to_owned()));
        }
        if branches.is_empty() {
            return Err(CoreError::Internal(
                "a view needs at least one branch".to_owned(),
            ));
        }
        let mut entries = Vec::with_capacity(branches.len());
        for q in branches {
            let nv = normalize(q, &self.scheme)?;
            entries.push(self.install_normalized(name, q.clone(), &nv)?);
        }
        let mut deps = vec![Dep::view(name)];
        for e in &entries {
            deps.extend(e.relations.iter().map(Dep::relation));
        }
        self.views
            .insert(name.to_owned(), ViewEntry { branches: entries });
        self.regenerate_selfjoins();
        self.bump_epoch_touching(deps);
        Ok(())
    }

    fn install_normalized(
        &mut self,
        name: &str,
        definition: ConjunctiveQuery,
        nv: &NormalizedView,
    ) -> CoreResult<BranchEntry> {
        // Renumber the view's variables into the global space.
        let mut var_map: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut global = |local: VarId, next: &mut VarId| -> VarId {
            *var_map.entry(local).or_insert_with(|| {
                let g = *next;
                *next += 1;
                g
            })
        };
        let mut next_var = self.next_var;

        // Pre-pass: assign global ids to cell variables in cell order so
        // the stored numbering matches the paper's x₁, x₂, … display.
        for atom in &nv.atoms {
            for t in &atom.terms {
                if let VarTerm::Var(x) = t {
                    global(*x, &mut next_var);
                }
            }
        }

        let comparisons: Vec<ConstraintAtom> = nv
            .comparisons
            .iter()
            .map(|c| ConstraintAtom {
                lhs: global(c.lhs, &mut next_var),
                op: c.op,
                rhs: match &c.rhs {
                    CompRhs::Var(y) => Rhs::Var(global(*y, &mut next_var)),
                    CompRhs::Const(v) => Rhs::Const(v.clone()),
                },
            })
            .collect();

        let mut tuple_ids = BTreeSet::new();
        let mut relations = BTreeSet::new();
        let mut new_tuples: Vec<(String, MetaTuple)> = Vec::new();
        for atom in &nv.atoms {
            let id = self.next_tuple;
            self.next_tuple += 1;
            let cells: Vec<MetaCell> = atom
                .terms
                .iter()
                .zip(&atom.starred)
                .map(|(t, s)| match t {
                    VarTerm::Const(v) => MetaCell::constant(v.clone(), *s),
                    VarTerm::Var(x) => MetaCell::var(global(*x, &mut next_var), *s),
                    VarTerm::Anon => {
                        if *s {
                            MetaCell::star()
                        } else {
                            MetaCell::blank()
                        }
                    }
                })
                .collect();
            let cell_vars: BTreeSet<VarId> = cells.iter().filter_map(MetaCell::as_var).collect();
            // Attach the comparison atoms that mention this tuple's
            // variables.
            let local_atoms: Vec<ConstraintAtom> = comparisons
                .iter()
                .filter(|a| a.vars().iter().any(|x| cell_vars.contains(x)))
                .cloned()
                .collect();
            let tuple = MetaTuple::new(name, id, cells, ConstraintSet::new(local_atoms));
            for x in &cell_vars {
                self.var_home.entry(*x).or_default().insert(id);
            }
            tuple_ids.insert(id);
            relations.insert(atom.rel.clone());
            new_tuples.push((atom.rel.clone(), tuple));
        }
        self.next_var = next_var;

        for (rel, tuple) in new_tuples {
            self.meta
                .get_mut(&rel)
                .ok_or_else(|| CoreError::Internal(format!("no meta-relation for {rel}")))?
                .tuples
                .push(tuple);
        }
        Ok(BranchEntry {
            definition,
            relations,
            tuple_ids,
            comparisons,
        })
    }

    /// Drop a view: its meta-tuples, comparisons, grants, and the
    /// self-joins that involved it.
    pub fn drop_view(&mut self, name: &str) -> CoreResult<()> {
        let entry = self
            .views
            .remove(name)
            .ok_or_else(|| CoreError::UnknownView(name.to_owned()))?;
        let ids = entry.all_tuple_ids();
        for mr in self.meta.values_mut() {
            mr.remove_covering(&ids);
        }
        for homes in self.var_home.values_mut() {
            homes.retain(|id| !ids.contains(id));
        }
        self.var_home.retain(|_, homes| !homes.is_empty());
        self.permissions.retain(|(_, v)| v != name);
        self.group_permissions.retain(|(_, v)| v != name);
        self.regenerate_selfjoins();
        let mut deps = vec![Dep::view(name)];
        for b in &entry.branches {
            deps.extend(b.relations.iter().map(Dep::relation));
        }
        self.bump_epoch_touching(deps);
        Ok(())
    }

    fn regenerate_selfjoins(&mut self) {
        self.selfjoins.clear();
        for (rel, mr) in &self.meta {
            let key = self.scheme.relation(rel).ok().and_then(|d| d.key.clone());
            let joins = selfjoin::self_joins(&mr.tuples, key.as_deref(), self.selfjoin_rounds);
            if !joins.is_empty() {
                self.selfjoins.insert(rel.clone(), joins);
            }
        }
    }

    /// Define an *aggregate view* (the Section 6 extension): grants the
    /// grouped aggregate without any row-level access. The name shares
    /// the view namespace.
    pub fn define_aggregate_view(&mut self, q: &motro_views::AggregateQuery) -> CoreResult<()> {
        let name = crate::aggregate::validate_aggregate_view(q, &self.scheme)?;
        if self.views.contains_key(&name) || self.aggregate_views.contains_key(&name) {
            return Err(CoreError::DuplicateView(name));
        }
        self.bump_epoch_touching([Dep::view(&name)]);
        self.aggregate_views.insert(name, q.clone());
        Ok(())
    }

    /// Look up an aggregate view definition.
    pub fn aggregate_view(&self, name: &str) -> Option<&motro_views::AggregateQuery> {
        self.aggregate_views.get(name)
    }

    /// Drop an aggregate view and its grants.
    pub fn drop_aggregate_view(&mut self, name: &str) -> CoreResult<()> {
        if self.aggregate_views.remove(name).is_none() {
            return Err(CoreError::UnknownView(name.to_owned()));
        }
        self.permissions.retain(|(_, v)| v != name);
        self.group_permissions.retain(|(_, v)| v != name);
        self.bump_epoch_touching([Dep::view(name)]);
        Ok(())
    }

    /// Grant `user` permission to access `view` (idempotent; the
    /// `permit V to U` statement). Accepts row views and aggregate
    /// views.
    pub fn permit(&mut self, view: &str, user: &str) -> CoreResult<()> {
        if !self.views.contains_key(view) && !self.aggregate_views.contains_key(view) {
            return Err(CoreError::UnknownView(view.to_owned()));
        }
        self.permissions.insert((user.to_owned(), view.to_owned()));
        self.bump_epoch_touching(Self::principal_deps(user));
        Ok(())
    }

    /// Revoke a grant.
    pub fn revoke(&mut self, view: &str, user: &str) -> CoreResult<()> {
        if !self.permissions.remove(&(user.to_owned(), view.to_owned())) {
            return Err(CoreError::UnknownGrant {
                user: user.to_owned(),
                view: view.to_owned(),
            });
        }
        self.bump_epoch_touching(Self::principal_deps(user));
        Ok(())
    }

    /// The touched-set of a grant change for a principal: the principal
    /// itself, plus the group when the name uses the `group:G`
    /// convention (such a row is read through the group's grants).
    fn principal_deps(user: &str) -> Vec<Dep> {
        let mut deps = vec![Dep::user(user)];
        if let Some(group) = user.strip_prefix("group:") {
            deps.push(Dep::group(group));
        }
        deps
    }

    /// Views granted to `user` — directly or through any group the user
    /// belongs to — in name order.
    ///
    /// A principal of the form `group:G` (the same prefix convention the
    /// `PERMISSION` display table uses) names the group itself: the
    /// result is exactly the views granted to `G`, letting callers act
    /// *as* a group principal (the server binds sessions this way).
    pub fn permitted_views(&self, user: &str) -> Vec<&str> {
        if let Some(group) = user.strip_prefix("group:") {
            return self
                .group_permissions
                .iter()
                .filter(|(g, _)| g == group)
                .map(|(_, v)| v.as_str())
                .collect();
        }
        let mut out: BTreeSet<&str> = self
            .permissions
            .iter()
            .filter(|(u, _)| u == user)
            .map(|(_, v)| v.as_str())
            .collect();
        if let Some(groups) = self.membership.get(user) {
            for g in groups {
                out.extend(
                    self.group_permissions
                        .iter()
                        .filter(|(gg, _)| gg == g)
                        .map(|(_, v)| v.as_str()),
                );
            }
        }
        out.into_iter().collect()
    }

    /// Grant a view to a *group* (every member inherits it).
    pub fn permit_group(&mut self, view: &str, group: &str) -> CoreResult<()> {
        if !self.views.contains_key(view) && !self.aggregate_views.contains_key(view) {
            return Err(CoreError::UnknownView(view.to_owned()));
        }
        self.group_permissions
            .insert((group.to_owned(), view.to_owned()));
        self.bump_epoch_touching([Dep::group(group)]);
        Ok(())
    }

    /// Revoke a group grant.
    pub fn revoke_group(&mut self, view: &str, group: &str) -> CoreResult<()> {
        if !self
            .group_permissions
            .remove(&(group.to_owned(), view.to_owned()))
        {
            return Err(CoreError::UnknownGrant {
                user: format!("group {group}"),
                view: view.to_owned(),
            });
        }
        self.bump_epoch_touching([Dep::group(group)]);
        Ok(())
    }

    /// Add `user` to `group`. Membership changes the user's permission
    /// set, so this advances the authorization epoch like any grant.
    /// Only the joining user's masks are touched: other members'
    /// grants are unchanged, and the user's future masks pick up the
    /// group dependency when they are recomputed.
    pub fn add_member(&mut self, group: &str, user: &str) {
        self.membership
            .entry(user.to_owned())
            .or_default()
            .insert(group.to_owned());
        self.bump_epoch_touching([Dep::user(user)]);
    }

    /// Remove `user` from `group`. Returns whether the membership
    /// existed (and, if so, advances the authorization epoch).
    pub fn remove_member(&mut self, group: &str, user: &str) -> bool {
        let removed = match self.membership.get_mut(user) {
            Some(gs) => {
                let removed = gs.remove(group);
                if gs.is_empty() {
                    self.membership.remove(user);
                }
                removed
            }
            None => false,
        };
        if removed {
            self.bump_epoch_touching([Dep::user(user)]);
        }
        removed
    }

    /// The groups `user` belongs to.
    pub fn groups_of(&self, user: &str) -> Vec<&str> {
        self.membership
            .get(user)
            .map(|gs| gs.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// All users with at least one grant.
    pub fn users(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.permissions.iter().map(|(u, _)| u.as_str()).collect();
        out.dedup();
        out
    }

    /// The defined view names.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }

    /// Look up a view entry.
    pub fn view(&self, name: &str) -> CoreResult<&ViewEntry> {
        self.views
            .get(name)
            .ok_or_else(|| CoreError::UnknownView(name.to_owned()))
    }

    /// The meta-relation of `rel`.
    pub fn meta_relation(&self, rel: &str) -> CoreResult<&MetaRelation> {
        self.meta
            .get(rel)
            .ok_or_else(|| CoreError::Internal(format!("no meta-relation for {rel}")))
    }

    /// Stored self-join combinations for `rel` (may be empty).
    pub fn self_joins(&self, rel: &str) -> &[MetaTuple] {
        self.selfjoins.get(rel).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The candidate meta-tuples for one occurrence of `rel` in a query
    /// by `user` whose plan references `query_rels`.
    ///
    /// Implements the pruning of Section 5: "pruned to include only
    /// tuples of views that [the user] is permitted to access, and that
    /// are defined in these relations **in their entirety**" — a view is
    /// usable only when every relation it stores meta-tuples in appears
    /// in the query. Stored self-joins qualify when *all* their source
    /// views are usable.
    pub fn candidates(
        &self,
        user: &str,
        rel: &str,
        query_rels: &BTreeSet<String>,
    ) -> Vec<MetaTuple> {
        // Usable meta-tuples: those of a *branch* (of a granted view)
        // whose relations all appear in the query. Working at the
        // tuple-id level makes self-join combinations (whose covers are
        // unions of stored ids) check uniformly.
        let mut usable_ids: BTreeSet<TupleId> = BTreeSet::new();
        for vname in self.permitted_views(user) {
            if let Some(entry) = self.views.get(vname) {
                for b in &entry.branches {
                    if b.relations.iter().all(|r| query_rels.contains(r)) {
                        usable_ids.extend(b.tuple_ids.iter().copied());
                    }
                }
            }
        }
        let mut out: Vec<MetaTuple> = Vec::new();
        if let Some(mr) = self.meta.get(rel) {
            for t in &mr.tuples {
                if t.covers.is_subset(&usable_ids) {
                    out.push(t.clone());
                }
            }
        }
        for t in self.self_joins(rel) {
            if t.covers.is_subset(&usable_ids) {
                out.push(t.clone());
            }
        }
        out
    }

    /// Closure test (the theorem's pruning): every variable the tuple
    /// mentions must have its *home* meta-tuples covered, i.e. the tuple
    /// "does not contain references to other meta-tuples".
    pub fn is_closed(&self, t: &MetaTuple) -> bool {
        t.all_vars().iter().all(|x| {
            self.var_home
                .get(x)
                .map(|home| home.is_subset(&t.covers))
                .unwrap_or(true)
        })
    }

    /// The home meta-tuples of a variable (for diagnostics).
    pub fn var_home(&self, x: VarId) -> Option<&BTreeSet<TupleId>> {
        self.var_home.get(&x)
    }

    /// Render `R'` (optionally atop the actual rows of `R`), Figure 1
    /// style.
    pub fn meta_table(&self, rel: &str, actual: Option<&Relation>) -> CoreResult<String> {
        Ok(self.meta_relation(rel)?.to_table(actual))
    }

    /// Render the `COMPARISON` relation.
    pub fn comparison_table(&self) -> String {
        let headers = ["VIEW", "X", "COMPARE", "Y"].map(str::to_owned).to_vec();
        let mut rows = Vec::new();
        for (view, e) in &self.views {
            for b in &e.branches {
                for a in &b.comparisons {
                    rows.push(vec![
                        view.clone(),
                        format!("x{}", a.lhs),
                        a.op.to_string(),
                        a.rhs.to_string(),
                    ]);
                }
            }
        }
        render_table(&headers, &rows)
    }

    /// Render the `PERMISSION` relation (group grants shown with a
    /// `group:` prefix).
    pub fn permission_table(&self) -> String {
        let headers = ["USER", "VIEW"].map(str::to_owned).to_vec();
        let mut rows: Vec<Vec<String>> = self
            .permissions
            .iter()
            .map(|(u, v)| vec![u.clone(), v.clone()])
            .collect();
        rows.extend(
            self.group_permissions
                .iter()
                .map(|(g, v)| vec![format!("group:{g}"), v.clone()]),
        );
        render_table(&headers, &rows)
    }

    /// Total stored meta-tuples across all meta-relations.
    pub fn total_meta_tuples(&self) -> usize {
        self.meta.values().map(MetaRelation::len).sum()
    }

    /// A variable id strictly above every id the store has assigned —
    /// the starting point for fresh variables in derived meta-tuples.
    pub fn next_var_hint(&self) -> VarId {
        self.next_var
    }

    /// Every grant as `(principal, view)` rows, group principals with
    /// the `group:` prefix (for the `PERMISSION` relation).
    pub fn all_grants(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .permissions
            .iter()
            .map(|(u, v)| (u.clone(), v.clone()))
            .collect();
        out.extend(
            self.group_permissions
                .iter()
                .map(|(g, v)| (format!("group:{g}"), v.clone())),
        );
        out
    }

    /// Every group membership as `(group, user)` rows.
    pub fn all_memberships(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (user, groups) in &self.membership {
            for g in groups {
                out.push((g.clone(), user.clone()));
            }
        }
        out
    }

    /// Install a view decoded from storage (see `core::storage`). Each
    /// branch arrives pre-normalized with the id of its first stored
    /// meta-tuple, and its statement is decompiled from the normal form.
    /// The counters are set so the branch gets back the tuple and
    /// variable ids it was stored under; views must therefore arrive in
    /// id order, and ids that would overlap an earlier view's are an
    /// error. Self-joins and the epoch are left to
    /// [`AuthStore::restore_settings`].
    pub(crate) fn define_view_from_storage(
        &mut self,
        name: &str,
        branches: &[(TupleId, NormalizedView)],
    ) -> CoreResult<()> {
        if self.views.contains_key(name) {
            return Err(CoreError::DuplicateView(name.to_owned()));
        }
        let mut entries = Vec::with_capacity(branches.len());
        for (first_tuple, nv) in branches {
            let first_var = nv
                .atoms
                .iter()
                .flat_map(|a| &a.terms)
                .filter_map(|t| match t {
                    VarTerm::Var(x) => Some(*x),
                    _ => None,
                })
                .min();
            if *first_tuple < self.next_tuple || first_var.is_some_and(|x| x < self.next_var) {
                return Err(CoreError::Storage(format!(
                    "stored ids of view {name} overlap an earlier view's"
                )));
            }
            self.next_tuple = *first_tuple;
            self.next_var = first_var.unwrap_or(self.next_var);
            let definition = motro_views::decompile(nv, &self.scheme)?;
            entries.push(self.install_normalized(name, definition, nv)?);
        }
        self.views
            .insert(name.to_owned(), ViewEntry { branches: entries });
        Ok(())
    }

    /// The defined aggregate views, by name.
    pub(crate) fn aggregate_views(&self) -> &BTreeMap<String, motro_views::AggregateQuery> {
        &self.aggregate_views
    }

    /// The store's scalar state, as the `SETTINGS` rows of
    /// `core::storage`: the id counters, the self-join rounds, and the
    /// epoch.
    pub(crate) fn settings(&self) -> [(&'static str, u64); 4] {
        [
            ("next_tuple", self.next_tuple.into()),
            ("next_var", self.next_var.into()),
            ("selfjoin_rounds", self.selfjoin_rounds as u64),
            ("epoch", self.epoch),
        ]
    }

    /// Finish a storage decode: restore the [`AuthStore::settings`]
    /// (counters never move below an id already in use), regenerate the
    /// self-joins, and start from an empty touched-set.
    pub(crate) fn restore_settings(
        &mut self,
        next_tuple: TupleId,
        next_var: VarId,
        selfjoin_rounds: usize,
        epoch: u64,
    ) {
        self.next_tuple = self.next_tuple.max(next_tuple);
        self.next_var = self.next_var.max(next_var);
        self.selfjoin_rounds = selfjoin_rounds;
        self.epoch = epoch;
        self.regenerate_selfjoins();
        self.touched = Touched::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use motro_rel::CompOp;
    use motro_views::AttrRef;

    fn store() -> AuthStore {
        fixtures::paper_store()
    }

    #[test]
    fn figure1_meta_tuple_layout() {
        let s = store();
        // EMPLOYEE': SAE (*, ⊔, *), ELP (x₁*, *, ⊔), EST ×2 (*, x₄*, ⊔).
        let emp = s.meta_relation("EMPLOYEE").unwrap();
        assert_eq!(emp.len(), 4);
        let sae = &emp.tuples[0];
        assert_eq!(sae.render_provenance(), "SAE");
        assert_eq!(sae.cells[0].render(), "*");
        assert_eq!(sae.cells[1].render(), "");
        assert_eq!(sae.cells[2].render(), "*");
        let elp = &emp.tuples[1];
        assert_eq!(elp.cells[0].render(), "x1*");
        assert_eq!(elp.cells[1].render(), "*");
        assert_eq!(elp.cells[2].render(), "");
        let est1 = &emp.tuples[2];
        let est2 = &emp.tuples[3];
        assert_eq!(est1.cells[1].render(), "x4*");
        assert_eq!(est1.cells[1], est2.cells[1]);

        // PROJECT': PSA (*, Acme*, *), ELP (x₂*, ⊔, x₃*).
        let proj = s.meta_relation("PROJECT").unwrap();
        assert_eq!(proj.len(), 2);
        assert_eq!(proj.tuples[1].cells[1].render(), "Acme*");
        let elp_p = &proj.tuples[0];
        assert_eq!(elp_p.cells[0].render(), "x2*");
        assert_eq!(elp_p.cells[2].render(), "x3*");
        // The BUDGET variable carries its COMPARISON atom locally.
        assert!(!elp_p.constraints.is_empty());

        // ASSIGNMENT': ELP (x₁*, x₂*).
        let asg = s.meta_relation("ASSIGNMENT").unwrap();
        assert_eq!(asg.len(), 1);
        assert_eq!(asg.tuples[0].cells[0].render(), "x1*");
        assert_eq!(asg.tuples[0].cells[1].render(), "x2*");
    }

    #[test]
    fn figure1_permissions() {
        let s = store();
        assert_eq!(s.permitted_views("Brown"), vec!["EST", "PSA", "SAE"]);
        assert_eq!(s.permitted_views("Klein"), vec!["ELP", "EST"]);
        assert!(s.permitted_views("Nobody").is_empty());
    }

    #[test]
    fn duplicate_view_rejected() {
        let mut s = store();
        let q = ConjunctiveQuery::view("SAE")
            .target("EMPLOYEE", "NAME")
            .build();
        assert!(matches!(
            s.define_view(&q),
            Err(CoreError::DuplicateView(_))
        ));
    }

    #[test]
    fn permit_unknown_view_rejected() {
        let mut s = store();
        assert!(s.permit("NOPE", "Brown").is_err());
    }

    #[test]
    fn revoke_semantics() {
        let mut s = store();
        assert!(s.revoke("SAE", "Brown").is_ok());
        assert!(matches!(
            s.revoke("SAE", "Brown"),
            Err(CoreError::UnknownGrant { .. })
        ));
        assert!(!s.permitted_views("Brown").contains(&"SAE"));
    }

    #[test]
    fn drop_view_removes_everything() {
        let mut s = store();
        let before = s.total_meta_tuples();
        s.drop_view("ELP").unwrap();
        assert_eq!(s.total_meta_tuples(), before - 3);
        assert!(!s.permitted_views("Klein").contains(&"ELP"));
        assert!(s.view("ELP").is_err());
        // EST survives in EMPLOYEE'.
        assert_eq!(s.meta_relation("EMPLOYEE").unwrap().len(), 3);
    }

    #[test]
    fn candidates_prune_by_entirety() {
        let s = store();
        let only_project: BTreeSet<String> = BTreeSet::from(["PROJECT".to_owned()]);
        // Brown on PROJECT: SAE and EST live in EMPLOYEE → only PSA.
        let c = s.candidates("Brown", "PROJECT", &only_project);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].render_provenance(), "PSA");
        // Klein on PROJECT alone: ELP spans three relations → nothing.
        let c = s.candidates("Klein", "PROJECT", &only_project);
        assert!(c.is_empty());
        // Klein with all three relations: ELP's PROJECT tuple appears.
        let all: BTreeSet<String> = ["EMPLOYEE", "PROJECT", "ASSIGNMENT"]
            .map(str::to_owned)
            .into();
        let c = s.candidates("Klein", "PROJECT", &all);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].render_provenance(), "ELP");
    }

    #[test]
    fn candidates_include_selfjoins_for_brown() {
        let s = store();
        let only_emp: BTreeSet<String> = BTreeSet::from(["EMPLOYEE".to_owned()]);
        let c = s.candidates("Brown", "EMPLOYEE", &only_emp);
        // SAE + EST + EST stored, plus the (cell-identical, merged)
        // SAE⋈EST combination.
        assert_eq!(c.len(), 4, "got {}", c.len());
        assert!(c
            .iter()
            .any(|t| t.provenance.len() == 2 && t.render_provenance() == "EST, SAE"));
        // Klein is not permitted SAE → no combination for him.
        let k = s.candidates("Klein", "EMPLOYEE", &only_emp);
        assert!(k.iter().all(|t| t.provenance.len() == 1));
    }

    #[test]
    fn closure_test_uses_var_homes() {
        let s = store();
        let all: BTreeSet<String> = ["EMPLOYEE", "PROJECT", "ASSIGNMENT"]
            .map(str::to_owned)
            .into();
        let elp_proj = s
            .candidates("Klein", "PROJECT", &all)
            .into_iter()
            .next()
            .unwrap();
        // ELP's PROJECT tuple references x₂ (shared with ASSIGNMENT) →
        // not closed alone.
        assert!(!s.is_closed(&elp_proj));
        // The concatenation of all three ELP tuples is closed.
        let emp = s.candidates("Klein", "EMPLOYEE", &all);
        let elp_emp = emp.iter().find(|t| t.render_provenance() == "ELP").unwrap();
        let asg = s
            .candidates("Klein", "ASSIGNMENT", &all)
            .into_iter()
            .next()
            .unwrap();
        let row = elp_emp.concat(&asg).concat(&elp_proj);
        assert!(s.is_closed(&row));
    }

    #[test]
    fn display_tables_render() {
        let s = store();
        let t = s.comparison_table();
        assert!(t.contains("COMPARE"));
        assert!(t.contains(">="));
        assert!(t.contains("250000"));
        let p = s.permission_table();
        assert!(p.contains("Brown"));
        assert!(p.contains("Klein"));
        let m = s.meta_table("PROJECT", None).unwrap();
        assert!(m.contains("Acme*"));
    }

    #[test]
    fn epoch_advances_on_every_auth_mutation() {
        let mut s = AuthStore::new(fixtures::paper_scheme());
        let mut last = s.auth_epoch();
        let mut expect_bump = |s: &AuthStore, what: &str| {
            assert!(s.auth_epoch() > last, "{what} did not bump the epoch");
            last = s.auth_epoch();
        };
        let v = ConjunctiveQuery::view("V")
            .target("EMPLOYEE", "NAME")
            .build();
        s.define_view(&v).unwrap();
        expect_bump(&s, "define_view");
        s.permit("V", "Brown").unwrap();
        expect_bump(&s, "permit");
        s.permit_group("V", "eng").unwrap();
        expect_bump(&s, "permit_group");
        s.add_member("eng", "Klein");
        expect_bump(&s, "add_member");
        assert!(s.remove_member("eng", "Klein"));
        expect_bump(&s, "remove_member");
        s.revoke_group("V", "eng").unwrap();
        expect_bump(&s, "revoke_group");
        s.revoke("V", "Brown").unwrap();
        expect_bump(&s, "revoke");
        s.set_selfjoin_rounds(2);
        expect_bump(&s, "set_selfjoin_rounds");
        s.drop_view("V").unwrap();
        expect_bump(&s, "drop_view");
        // Failed mutations leave the epoch alone.
        assert!(s.permit("NOPE", "Brown").is_err());
        assert_eq!(s.auth_epoch(), last);
        assert!(!s.remove_member("eng", "Klein"));
        assert_eq!(s.auth_epoch(), last);
    }

    #[test]
    fn mutations_report_precise_touched_sets() {
        let mut s = store();
        s.take_touched(); // drain the fixture's setup mutations

        s.permit("SAE", "Smith").unwrap();
        assert_eq!(s.take_touched().render(), vec!["user:Smith"]);

        s.permit_group("SAE", "eng").unwrap();
        assert_eq!(s.take_touched().render(), vec!["group:eng"]);

        s.add_member("eng", "Klein");
        assert_eq!(s.take_touched().render(), vec!["user:Klein"]);

        // Batches accumulate until drained.
        assert!(s.remove_member("eng", "Klein"));
        s.revoke_group("SAE", "eng").unwrap();
        assert_eq!(s.take_touched().render(), vec!["user:Klein", "group:eng"]);

        // Grants to a group principal touch the group too.
        s.permit("SAE", "group:eng").unwrap();
        assert_eq!(
            s.take_touched().render(),
            vec!["user:group:eng", "group:eng"]
        );

        // View DDL touches the view name and its branch relations.
        let v = ConjunctiveQuery::view("V")
            .target("EMPLOYEE", "NAME")
            .build();
        s.define_view(&v).unwrap();
        assert_eq!(s.take_touched().render(), vec!["view:V", "rel:EMPLOYEE"]);
        s.drop_view("V").unwrap();
        assert_eq!(s.take_touched().render(), vec!["view:V", "rel:EMPLOYEE"]);

        // A direct bump (out-of-band change) degrades to All,
        // and All is sticky across the batch.
        s.bump_epoch();
        s.permit("SAE", "Smith").unwrap();
        let t = s.take_touched();
        assert_eq!(t, Touched::All);
        assert_eq!(t.render(), vec!["*"]);

        // set_selfjoin_rounds changes every stored combination: All.
        s.set_selfjoin_rounds(2);
        assert_eq!(s.take_touched(), Touched::All);

        // Failed mutations touch nothing.
        assert!(s.permit("NOPE", "Brown").is_err());
        assert!(s.take_touched().is_empty());
    }

    #[test]
    fn mask_dependencies_cover_the_pipeline_reads() {
        let mut s = store();
        s.permit_group("SAE", "eng").unwrap();
        s.add_member("eng", "Brown");
        s.take_touched(); // drain the setup mutations

        let emp_only: BTreeSet<String> = ["EMPLOYEE".to_string()].into();
        let deps = s.mask_dependencies("Brown", &emp_only);
        // Principal, group, plan relation, and the granted views with a
        // branch inside {EMPLOYEE} (SAE and EST; ELP needs PROJECT too).
        assert!(deps.contains(&Dep::user("Brown")));
        assert!(deps.contains(&Dep::group("eng")));
        assert!(deps.contains(&Dep::relation("EMPLOYEE")));
        assert!(deps.contains(&Dep::view("SAE")));
        assert!(deps.contains(&Dep::view("EST")));

        // Klein holds ELP, but it is usable (hence a dependency) only
        // when the plan covers the view's whole relation footprint.
        let deps = s.mask_dependencies("Klein", &emp_only);
        assert!(!deps.contains(&Dep::view("ELP")));
        let wide: BTreeSet<String> = [
            "EMPLOYEE".to_string(),
            "ASSIGNMENT".to_string(),
            "PROJECT".to_string(),
        ]
        .into();
        let deps = s.mask_dependencies("Klein", &wide);
        assert!(deps.contains(&Dep::view("ELP")));

        // Group principals read the group's grants directly.
        let deps = s.mask_dependencies("group:eng", &emp_only);
        assert!(deps.contains(&Dep::group("eng")));
        assert!(deps.contains(&Dep::user("group:eng")));

        // Every mutation's touched-set intersects the provenance of the
        // masks it can change: a group grant hits Brown's deps.
        s.permit_group("EST", "eng").unwrap();
        let touched = s.take_touched();
        assert!(touched.affects(&s.mask_dependencies("Brown", &emp_only)));
        // ...but not an unrelated user's.
        assert!(!touched.affects(&s.mask_dependencies("Klein", &emp_only)));
    }

    #[test]
    fn group_principal_prefix_lists_group_grants() {
        let mut s = store();
        s.permit_group("SAE", "eng").unwrap();
        s.permit_group("EST", "eng").unwrap();
        assert_eq!(s.permitted_views("group:eng"), vec!["EST", "SAE"]);
        assert!(s.permitted_views("group:ops").is_empty());
        // The prefix names the group itself, not a member.
        s.add_member("eng", "Klein");
        assert!(s.permitted_views("Klein").contains(&"SAE"));
        assert!(!s.permitted_views("group:eng").contains(&"ELP"));
    }

    #[test]
    fn variables_are_globally_renumbered() {
        let mut s = AuthStore::new(fixtures::paper_scheme());
        // Two views each using one variable locally — must not collide.
        let v1 = ConjunctiveQuery::view("V1")
            .target("EMPLOYEE", "NAME")
            .where_const(AttrRef::new("EMPLOYEE", "SALARY"), CompOp::Ge, 10)
            .build();
        let v2 = ConjunctiveQuery::view("V2")
            .target("EMPLOYEE", "NAME")
            .where_const(AttrRef::new("EMPLOYEE", "SALARY"), CompOp::Le, 5)
            .build();
        s.define_view(&v1).unwrap();
        s.define_view(&v2).unwrap();
        let emp = s.meta_relation("EMPLOYEE").unwrap();
        let x1 = emp.tuples[0].cells[2].as_var().unwrap();
        let x2 = emp.tuples[1].cells[2].as_var().unwrap();
        assert_ne!(x1, x2);
    }
}
