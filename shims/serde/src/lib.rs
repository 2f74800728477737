//! Offline stand-in for the `serde` facade.
//!
//! Re-exports the no-op `Serialize` / `Deserialize` derives so that
//! `use serde::{Deserialize, Serialize};` plus `#[derive(...)]` compiles
//! without network access. The derives are inert markers — no trait impls are
//! generated.
//!
//! The [`json`] module is the one place the shim does real work: a minimal
//! JSON value model (build / render / parse) backing the experiment
//! harness's `--format json` output and the cell-cache entries, scenario
//! files and topology files it reads back, until the real `serde_json` is
//! available.

pub mod json;

pub use serde_derive::{Deserialize, Serialize};
