//! Offline stand-in for `serde_derive`.
//!
//! The build environment cannot reach a crates.io mirror. These derives
//! expand to nothing, and no crate in the workspace uses them: the crate
//! stays only because the stand-alone benchmark package's lock file lists
//! it (see the `serde` shim).

use proc_macro::TokenStream;

/// No-op `Serialize` derive: accepts any item and emits no code.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive: accepts any item and emits no code.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
