//! `pgrid-node` minus its `soak` module; see build.rs.
include!(concat!(env!("OUT_DIR"), "/node_lib.rs"));
