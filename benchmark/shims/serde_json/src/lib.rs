//! Offline stand-in for `serde_json`: every entry point accepts any type
//! (the derive stand-ins generate no impls to bound on) and panics when
//! called. The benchmark never reaches one; a panic here means a measured
//! path started to depend on JSON.

use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Never constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {}

fn unavailable(entry: &str) -> ! {
    panic!("serde_json::{entry} called through the offline stand-in")
}

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    unavailable("to_string")
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    unavailable("to_string_pretty")
}

pub fn to_vec<T: ?Sized>(_value: &T) -> Result<Vec<u8>> {
    unavailable("to_vec")
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    unavailable("from_str")
}

pub fn from_slice<T>(_v: &[u8]) -> Result<T> {
    unavailable("from_slice")
}
