//! # pgrid-wire
//!
//! Binary wire protocol for P-Grid peers.
//!
//! The simulation crates call each other's methods directly; the *live*
//! deployment ([`pgrid-node`](../pgrid_node/index.html)) runs each peer as
//! an actor and ships every interaction as a length-framed binary
//! [`Message`]. The codec is hand-rolled (varints + fixed-width fields) on
//! top of [`bytes`], with exhaustive round-trip tests.
//!
//! Frame layout: `u32-LE payload length ‖ payload`; payload starts with a
//! one-byte message tag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod message;
mod varint;

pub use codec::{decode_frame, decode_frame_slice, encode_frame, CodecError, MAX_FRAME_LEN};
pub use message::{Message, WireEntry};
pub use varint::{read_varint, write_varint};
