//! A bounds-checked little-endian reader over snapshot payloads, shared by
//! every snapshot decoder (the compiled decision-diagram sampler, the dense
//! prefix sampler, the stabilizer measurement sampler and the artifact
//! cache's own sections and file header).

/// Reads little-endian integers off the front of a byte slice.  Every read
/// returns `None` instead of panicking when too few bytes remain, so a
/// truncated or corrupted snapshot can never panic its loader.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotReader<'a>(&'a [u8]);

impl<'a> SnapshotReader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self(bytes)
    }

    /// The number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// Consumes and returns the next `n` bytes, or `None` if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    /// Consumes and returns every unread byte.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
    }

    /// Reads a little-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .and_then(|b| b.try_into().ok().map(u128::from_le_bytes))
    }
}
