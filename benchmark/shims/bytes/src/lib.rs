//! Offline stand-in for `bytes` 1.x: the API subset the pgrid crates call.
//!
//! `Bytes` is a reference-counted slice (clone and `slice` share the
//! allocation, as in the published crate); `BytesMut` is a `Vec<u8>` with a
//! read offset, so `split_to` copies the bytes it splits off.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

pub trait Buf {
    fn remaining(&self) -> usize;

    fn chunk(&self) -> &[u8];

    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    fn put_u16_le(&mut self, n: u16) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }
}

#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` sharing this allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            buf: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end");
        self.start += cnt;
    }
}

#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    start: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
            start: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Splits off the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.buf[self.start..self.start + at].to_vec();
        self.advance(at);
        BytesMut {
            buf: head,
            start: 0,
        }
    }

    pub fn freeze(mut self) -> Bytes {
        if self.start > 0 {
            self.buf.drain(..self.start);
        }
        Bytes::from(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        BytesMut {
            buf: src.to_vec(),
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    /// Consumed bytes are reclaimed once the buffer runs empty or the dead
    /// prefix outgrows the live part, so a long-lived accumulator stays
    /// bounded.
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end");
        self.start += cnt;
        if self.start == self.buf.len() {
            self.clear();
        } else if self.start > 4096 && self.start > self.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}
