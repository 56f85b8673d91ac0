//! Packed per-node flag words for the engine hot loop.
//!
//! The round loop tests and sets exactly two per-node facts — *halted*
//! and *awake this round* — and, at `k >= 2` shards, re-reads the
//! awake flag during the cross-shard apply step. Storing each flag as one bit
//! in a `u64` word instead of a byte (or a full 8-byte stamp) shrinks the
//! flag working set 8–64x, so the bucket drain and the per-send receiver
//! check stay in L1 even at n = 2^20+. Words are cleared word-at-a-time:
//! a full reset is one `fill(0)` sweep, and the per-round awake reset
//! touches only the words of nodes that were actually active.

/// A fixed-capacity bitset over node indices, packed 64 flags per word.
#[derive(Debug, Default)]
pub(crate) struct NodeBits {
    words: Vec<u64>,
}

impl NodeBits {
    /// An empty bitset; size it with [`NodeBits::fit`].
    pub(crate) fn new() -> NodeBits {
        NodeBits { words: Vec::new() }
    }

    /// Resizes for `n` flags and clears every bit, word-at-a-time.
    pub(crate) fn fit(&mut self, n: usize) {
        self.words.resize(n.div_ceil(64), 0);
        self.words.fill(0);
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets bit `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clears bit `i`.
    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Appends this bitset's growable-buffer capacity to the allocation
    /// oracle (see `EngineScratch::capacity_signature`).
    pub(crate) fn capacity_signature(&self, out: &mut Vec<usize>) {
        out.push(self.words.capacity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_across_word_boundaries() {
        let mut b = NodeBits::new();
        b.fit(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        b.clear(64);
        assert!(!b.get(64));
        assert!(b.get(63) && b.get(65), "neighbors untouched");
    }

    #[test]
    fn fit_clears_and_resizes() {
        let mut b = NodeBits::new();
        b.fit(70);
        b.set(69);
        b.fit(200);
        assert!(!b.get(69), "refit must clear stale flags");
        b.set(199);
        assert!(b.get(199));
        b.fit(10); // shrink keeps word 0 usable
        assert!(!b.get(9));
    }

    #[test]
    fn zero_capacity_is_fine() {
        let mut b = NodeBits::new();
        b.fit(0);
        b.capacity_signature(&mut Vec::new());
    }
}
