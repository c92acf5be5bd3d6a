//! Offline stand-in for `serde_derive`: the derives accept `#[serde(...)]`
//! attributes and expand to nothing, so derived types carry no impls. The
//! `serde_json` stand-in takes any type and panics if it is ever called.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
