//! Atomic values and their domains.
//!
//! The paper's examples use two kinds of constants: strings (`Acme`,
//! `engineer`) and integers (`250,000`). Comparators (`<`, `≤`, `≥`, `=`,
//! `≠`, `>`) must be decidable on every domain, so both variants carry a
//! total order. Cross-domain comparisons are a type error surfaced by
//! [`Value::compare`].

use std::cmp::Ordering;
use std::fmt;

/// The domain (type) of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// 64-bit signed integers (salaries, budgets, ...).
    Int,
    /// UTF-8 strings (names, titles, sponsors, ...).
    Str,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Int => write!(f, "int"),
            Domain::Str => write!(f, "str"),
        }
    }
}

/// An atomic database value.
///
/// Values are totally ordered *within* a domain; ordering across domains
/// is not meaningful and the engine rejects it during predicate
/// type-checking.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A string value.
    Str(String),
}

impl Value {
    /// The domain this value belongs to.
    pub fn domain(&self) -> Domain {
        match self {
            Value::Int(_) => Domain::Int,
            Value::Str(_) => Domain::Str,
        }
    }

    /// Compare two values of the same domain.
    ///
    /// Returns `None` when the domains differ (a type error the caller
    /// should surface).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_match_constructors() {
        assert_eq!(Value::int(3).domain(), Domain::Int);
        assert_eq!(Value::str("x").domain(), Domain::Str);
    }

    #[test]
    fn same_domain_comparison_is_total() {
        assert_eq!(Value::int(1).compare(&Value::int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").compare(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::str("a").compare(&Value::str("a")),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_domain_comparison_is_rejected() {
        assert_eq!(Value::int(1).compare(&Value::str("1")), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(250_000).to_string(), "250000");
        assert_eq!(Value::str("Acme").to_string(), "Acme");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Str("hi".into()));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::int(7).as_str(), None);
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(Value::str("s").as_int(), None);
    }
}
