//! Generates the crate root from `crates/node/src/lib.rs`: the same `mod`
//! and `pub use` statements with every statement naming `soak` dropped and
//! each module `#[path]`-ed to the real source file. Nothing is copied, so
//! the view follows whatever a later PR does to `crates/node`.

use std::path::PathBuf;
use std::{env, fs};

fn main() {
    let manifest = PathBuf::from(env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let src = manifest
        .join("../../crates/node/src")
        .canonicalize()
        .expect("crates/node/src exists");
    let lib = src.join("lib.rs");
    println!("cargo:rerun-if-changed={}", lib.display());
    let text = fs::read_to_string(&lib).expect("read crates/node/src/lib.rs");

    let mut out = String::new();
    let mut statement = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        // Inner docs and inner attributes are not allowed inside include!.
        if statement.is_empty()
            && (trimmed.is_empty() || trimmed.starts_with("//") || trimmed.starts_with("#!["))
        {
            continue;
        }
        statement.push_str(line);
        statement.push('\n');
        if !trimmed.ends_with(';') {
            continue;
        }
        let stmt = std::mem::take(&mut statement);
        let head = stmt.trim();
        if head.contains("soak") {
            continue;
        }
        let module = head
            .strip_prefix("pub mod ")
            .or_else(|| head.strip_prefix("mod "))
            .and_then(|rest| rest.strip_suffix(';'));
        if let Some(name) = module {
            let file = src.join(format!("{}.rs", name.trim()));
            out.push_str(&format!("#[path = {:?}]\n", file.display().to_string()));
        }
        out.push_str(&stmt);
    }
    assert!(
        statement.is_empty(),
        "unterminated statement in lib.rs: {statement}"
    );
    let dest = PathBuf::from(env::var("OUT_DIR").expect("set by cargo")).join("node_lib.rs");
    fs::write(dest, out).expect("write generated crate root");
}
