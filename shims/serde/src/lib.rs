//! Offline stand-in for the `serde` facade.
//!
//! Re-exports the no-op `Serialize` / `Deserialize` derives of the
//! `serde_derive` shim. No crate in the workspace derives them any more; the
//! re-export stays because the stand-alone benchmark package's lock file
//! lists `serde_derive`, and dropping the crate would rewrite that file.
//!
//! The [`json`] module is the one place the shim does real work: a minimal
//! JSON value model (build / render / parse) backing the experiment
//! harness's `--format json` output and the cell-cache entries, scenario
//! files and topology files it reads back, until the real `serde_json` is
//! available.

pub mod json;

pub use serde_derive::{Deserialize, Serialize};
