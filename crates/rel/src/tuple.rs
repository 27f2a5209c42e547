//! Tuples: positional rows of [`Value`]s.

use crate::error::{RelError, RelResult};
use crate::schema::RelSchema;
use crate::value::Value;
use std::fmt;

/// A positional row of values.
///
/// Tuples are untyped on their own; [`Tuple::check_against`] validates a
/// tuple against a schema (arity and per-column domains).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at position `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Concatenate two tuples (the tuple-level product).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Project onto the positions in `indices` (in that order).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Validate arity and domains against `schema`.
    pub fn check_against(&self, schema: &RelSchema) -> RelResult<()> {
        if self.values.len() != schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: schema.arity(),
                found: self.values.len(),
            });
        }
        for (i, v) in self.values.iter().enumerate() {
            if v.domain() != schema.domain(i) {
                return Err(RelError::TypeMismatch {
                    expected: format!("{} in column {}", schema.domain(i), schema.column(i).qual),
                    found: format!("{} ({})", v, v.domain()),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Build a [`Tuple`] from a comma-separated list of values convertible
/// into [`Value`]: `tuple!["Jones", "manager", 26_000]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Domain;

    fn employee() -> RelSchema {
        RelSchema::base(
            "EMPLOYEE",
            &[
                ("NAME", Domain::Str),
                ("TITLE", Domain::Str),
                ("SALARY", Domain::Int),
            ],
        )
    }

    #[test]
    fn macro_and_access() {
        let t = tuple!["Jones", "manager", 26_000];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.value(0), &Value::str("Jones"));
        assert_eq!(t.value(2), &Value::int(26_000));
    }

    #[test]
    fn concat_and_project() {
        let a = tuple![1, 2];
        let b = tuple![3];
        let c = a.concat(&b);
        assert_eq!(c, tuple![1, 2, 3]);
        assert_eq!(c.project(&[2, 0]), tuple![3, 1]);
    }

    #[test]
    fn check_against_accepts_well_typed() {
        let t = tuple!["Jones", "manager", 26_000];
        assert!(t.check_against(&employee()).is_ok());
    }

    #[test]
    fn check_against_rejects_arity() {
        let t = tuple!["Jones"];
        assert!(matches!(
            t.check_against(&employee()),
            Err(RelError::ArityMismatch {
                expected: 3,
                found: 1
            })
        ));
    }

    #[test]
    fn check_against_rejects_domain() {
        let t = tuple!["Jones", "manager", "lots"];
        assert!(matches!(
            t.check_against(&employee()),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, a)");
    }
}
