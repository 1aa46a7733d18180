//! Kernel Coalescing's memory side: the contiguous buffer layout of Fig. 5.
//!
//! "We observed that when multiple VP instances are running it is likely that an
//! identical kernel is called by more than one VP at the same time. Such simulations
//! can be accelerated by coalescing those common invocations from each VP into a
//! single kernel invocation" (paper, Section 3). Which jobs merge is decided by the
//! [`Coalesce`](crate::Coalesce) pipeline pass; the Eq. 9 gain of a merged launch
//! is priced by the host engine's flush and by `sigmavp_obs::model`.
//!
//! Coalescing requires the member buffers to live in physically contiguous device
//! memory (Fig. 5); [`MemoryLayout`] plans that placement and the scatter-back.

/// Placement of member buffers inside one contiguous coalesced buffer (Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    offsets: Vec<u64>,
    lens: Vec<u64>,
    total_len: u64,
    alignment: u64,
}

impl MemoryLayout {
    /// Lay out buffers of the given `sizes` back to back, each aligned up to
    /// `alignment` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is zero.
    pub fn contiguous(sizes: &[u64], alignment: u64) -> Self {
        assert!(alignment > 0, "alignment must be positive");
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut cursor = 0u64;
        for &len in sizes {
            offsets.push(cursor);
            cursor += len.div_ceil(alignment) * alignment;
        }
        let layout = MemoryLayout { offsets, lens: sizes.to_vec(), total_len: cursor, alignment };
        sigmavp_telemetry::recorder()
            .count("coalesce.alignment_padding_bytes", layout.padding_bytes());
        layout
    }

    /// Bytes lost to alignment padding: total length minus payload (the
    /// "waste" side of the Eq. 9 trade-off).
    pub fn padding_bytes(&self) -> u64 {
        self.total_len - self.lens.iter().sum::<u64>()
    }

    /// Byte offset of member `i` inside the coalesced buffer.
    pub fn offset(&self, i: usize) -> u64 {
        self.offsets[i]
    }

    /// Length of member `i` in bytes (unpadded).
    pub fn len_of(&self, i: usize) -> u64 {
        self.lens[i]
    }

    /// Total coalesced buffer size, including padding.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Number of members.
    pub fn members(&self) -> usize {
        self.offsets.len()
    }

    /// Gather: copy each member slice from `sources` into one coalesced byte
    /// buffer (host-side staging before a single H2D copy).
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not match the layout (member count or lengths).
    pub fn gather(&self, sources: &[&[u8]]) -> Vec<u8> {
        assert_eq!(sources.len(), self.members(), "member count mismatch");
        let mut out = vec![0u8; self.total_len as usize];
        for (i, src) in sources.iter().enumerate() {
            assert_eq!(src.len() as u64, self.lens[i], "member {i} length mismatch");
            let off = self.offsets[i] as usize;
            out[off..off + src.len()].copy_from_slice(src);
        }
        out
    }

    /// Scatter: split a coalesced byte buffer back into per-member vectors
    /// ("the resulting data are properly divided to be copied ... back to the host
    /// memory addresses").
    ///
    /// # Panics
    ///
    /// Panics if `coalesced` is shorter than the layout's total length.
    pub fn scatter(&self, coalesced: &[u8]) -> Vec<Vec<u8>> {
        assert!(coalesced.len() as u64 >= self.total_len, "coalesced buffer too short");
        self.offsets
            .iter()
            .zip(&self.lens)
            .map(|(&off, &len)| coalesced[off as usize..(off + len) as usize].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_aligned() {
        let l = MemoryLayout::contiguous(&[100, 300, 128], 128);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 128); // 100 rounded up
        assert_eq!(l.offset(2), 128 + 384);
        assert_eq!(l.total_len(), 128 + 384 + 128);
        assert_eq!(l.members(), 3);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = vec![1u8; 10];
        let b = vec![2u8; 200];
        let c = vec![3u8; 128];
        let l = MemoryLayout::contiguous(&[10, 200, 128], 128);
        let merged = l.gather(&[&a, &b, &c]);
        assert_eq!(merged.len() as u64, l.total_len());
        let parts = l.scatter(&merged);
        assert_eq!(parts, vec![a, b, c]);
    }
}
