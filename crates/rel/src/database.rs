//! The database catalog: named relations, schemas, and keys.

use crate::error::{RelError, RelResult};
use crate::relation::Relation;
use crate::schema::{RelName, RelSchema};
use crate::tuple::Tuple;
use crate::value::Domain;
use std::collections::BTreeMap;

/// Definition of one base relation: its schema plus an optional key.
///
/// Keys are not used by query evaluation; they feed the paper's §4.2
/// *self-join* refinement, which may combine meta-tuples only when the
/// corresponding subviews "can participate in a lossless join (for
/// example, both subviews include the key of this relation)".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDef {
    /// The relation's schema.
    pub schema: RelSchema,
    /// Column indices forming a key, if declared.
    pub key: Option<Vec<usize>>,
}

/// A database scheme: relation definitions by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbSchema {
    relations: BTreeMap<RelName, RelationDef>,
}

impl DbSchema {
    /// An empty scheme.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation with attributes and no key.
    pub fn add_relation(&mut self, name: &str, attrs: &[(&str, Domain)]) -> RelResult<()> {
        self.add_relation_with_key(name, attrs, None)
    }

    /// Add a relation, optionally declaring key attributes by name.
    pub fn add_relation_with_key(
        &mut self,
        name: &str,
        attrs: &[(&str, Domain)],
        key: Option<&[&str]>,
    ) -> RelResult<()> {
        if self.relations.contains_key(name) {
            return Err(RelError::DuplicateRelation(name.to_owned()));
        }
        let schema = RelSchema::base(name, attrs);
        let key = match key {
            None => None,
            Some(names) => {
                let mut idx = Vec::with_capacity(names.len());
                for n in names {
                    idx.push(schema.index_of_attr(n)?);
                }
                Some(idx)
            }
        };
        self.relations
            .insert(name.to_owned(), RelationDef { schema, key });
        Ok(())
    }

    /// Look up a relation definition.
    pub fn relation(&self, name: &str) -> RelResult<&RelationDef> {
        self.relations
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))
    }

    /// Look up just the schema.
    pub fn schema_of(&self, name: &str) -> RelResult<&RelSchema> {
        Ok(&self.relation(name)?.schema)
    }

    /// Iterate over `(name, def)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &RelationDef)> {
        self.relations.iter()
    }

    /// Relation names in name order.
    pub fn names(&self) -> impl Iterator<Item = &RelName> {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the scheme is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// A database instance: one [`Relation`] per scheme entry.
#[derive(Debug, Clone)]
pub struct Database {
    schema: DbSchema,
    instances: BTreeMap<RelName, Relation>,
}

impl Database {
    /// An empty instance of `schema`.
    pub fn new(schema: DbSchema) -> Self {
        let instances = schema
            .iter()
            .map(|(n, d)| (n.clone(), Relation::new(d.schema.clone())))
            .collect();
        Database { schema, instances }
    }

    /// The database scheme.
    pub fn schema(&self) -> &DbSchema {
        &self.schema
    }

    /// The instance of relation `name`.
    pub fn relation(&self, name: &str) -> RelResult<&Relation> {
        self.instances
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))
    }

    /// Insert a tuple into relation `name`. Returns whether it was new.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> RelResult<bool> {
        self.instances
            .get_mut(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))?
            .insert(tuple)
    }

    /// Insert many tuples into relation `name`.
    pub fn insert_all<I>(&mut self, name: &str, tuples: I) -> RelResult<()>
    where
        I: IntoIterator<Item = Tuple>,
    {
        for t in tuples {
            self.insert(name, t)?;
        }
        Ok(())
    }

    /// Delete a tuple from relation `name`. Returns whether it existed.
    pub fn delete(&mut self, name: &str, tuple: &Tuple) -> RelResult<bool> {
        Ok(self
            .instances
            .get_mut(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))?
            .remove(tuple))
    }

    /// Total tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.instances.values().map(Relation::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn scheme() -> DbSchema {
        let mut s = DbSchema::new();
        s.add_relation_with_key(
            "EMPLOYEE",
            &[
                ("NAME", Domain::Str),
                ("TITLE", Domain::Str),
                ("SALARY", Domain::Int),
            ],
            Some(&["NAME"]),
        )
        .unwrap();
        s.add_relation(
            "ASSIGNMENT",
            &[("E_NAME", Domain::Str), ("P_NO", Domain::Str)],
        )
        .unwrap();
        s
    }

    #[test]
    fn scheme_lookup() {
        let s = scheme();
        assert_eq!(s.len(), 2);
        assert_eq!(s.schema_of("EMPLOYEE").unwrap().arity(), 3);
        assert!(s.schema_of("NOPE").is_err());
        assert_eq!(s.relation("EMPLOYEE").unwrap().key, Some(vec![0]));
        assert_eq!(s.relation("ASSIGNMENT").unwrap().key, None);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut s = scheme();
        assert!(matches!(
            s.add_relation("EMPLOYEE", &[("X", Domain::Int)]),
            Err(RelError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn bad_key_attribute_rejected() {
        let mut s = DbSchema::new();
        assert!(s
            .add_relation_with_key("R", &[("A", Domain::Int)], Some(&["B"]))
            .is_err());
    }

    #[test]
    fn instance_insert_delete() {
        let mut db = Database::new(scheme());
        assert!(db
            .insert("EMPLOYEE", tuple!["Jones", "manager", 26_000])
            .unwrap());
        assert!(!db
            .insert("EMPLOYEE", tuple!["Jones", "manager", 26_000])
            .unwrap());
        assert_eq!(db.total_tuples(), 1);
        assert!(db
            .delete("EMPLOYEE", &tuple!["Jones", "manager", 26_000])
            .unwrap());
        assert_eq!(db.total_tuples(), 0);
    }

    #[test]
    fn insert_validates_against_schema() {
        let mut db = Database::new(scheme());
        assert!(db.insert("EMPLOYEE", tuple![1, 2, 3]).is_err());
        assert!(db.insert("NOPE", tuple![1]).is_err());
    }
}
