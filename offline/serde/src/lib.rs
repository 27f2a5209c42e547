//! Offline stand-in for `serde`. It exists only so the stub
//! `serde_json`'s dependency on `serde` resolves: nothing in the
//! workspace derives or consumes serde traits, and JSON is built and
//! read through `serde_json::Value`.
