//! # sigrec-abi
//!
//! The contract-ABI substrate of the SigRec reproduction:
//!
//! - [`AbiType`] — the Solidity parameter-type grammar (basic types, static/
//!   dynamic/nested arrays, `bytes`, `string`, structs), with canonical
//!   rendering and parsing;
//! - [`VyperType`] — Vyper's ten surface types and their lowering onto the
//!   calldata layout grammar;
//! - [`FunctionSignature`] / [`Selector`] — function ids via Keccak-256;
//! - [`encode()`] / [`encode_call`] — the full head/tail ABI encoder;
//! - [`decode()`] / [`decode_call`] — a strict validating decoder (padding,
//!   offsets, lengths), the foundation of ParChecker's invalid-argument
//!   detection (§6.1 of the paper).

#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod pretty;
pub mod sig;
pub mod types;
pub mod value;
pub mod vyper;

pub use decode::{decode, decode_call, DecodeError};
pub use encode::{encode, encode_call, EncodeError};
pub use pretty::pretty_args;
pub use sig::{FunctionSignature, Selector};
pub use types::{AbiType, TypeParseError};
pub use value::AbiValue;
pub use vyper::VyperType;
