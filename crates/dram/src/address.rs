//! Physical address decomposition and the ORAM sub-tree layout.
//!
//! A physical address names a 64-byte block. [`AddressMapping`] splits it
//! into `(channel, rank, bank, row, column)`. For ORAM, the *sub-tree
//! layout* of Ren et al. packs small subtrees of the ORAM tree into single
//! DRAM rows so that a path access touches few rows per channel and enjoys
//! row-buffer locality; [`SubtreeLayout`] converts bucket ids to physical
//! block addresses accordingly.

use crate::config::DramConfig;
use oram_util::Digit;

/// A decoded DRAM location for one 64-byte block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column in burst units within the row.
    pub column: usize,
}

/// Interleaving order used to decode physical block addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// row : rank : bank : column : channel — consecutive blocks alternate
    /// channels, then walk a row; good for streaming (the default).
    RowRankBankColChan,
    /// row : column : rank : bank : channel — consecutive blocks spread
    /// over banks first.
    RowColRankBankChan,
}

/// Physical-address → DRAM-location mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMapping {
    channels: Digit,
    ranks: Digit,
    banks: Digit,
    bursts_per_row: Digit,
    interleave: Interleave,
    /// Under [`Interleave::RowRankBankColChan`] with every radix a power
    /// of two: each field's shift from the address's low end, and its
    /// mask. The fields then come from the address independently instead
    /// of one after another.
    fields: Option<Fields>,
}

/// Shifts and masks of the channel, column, bank and rank fields; the row
/// is everything above `row_shift`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fields {
    shift: [u32; 4],
    mask: [u64; 4],
    row_shift: u32,
}

impl AddressMapping {
    /// Builds the mapping for `cfg` with the given interleave order.
    pub fn new(cfg: &DramConfig, interleave: Interleave) -> Self {
        AddressMapping {
            channels: Digit::new(cfg.channels),
            ranks: Digit::new(cfg.ranks),
            banks: Digit::new(cfg.banks),
            bursts_per_row: Digit::new(cfg.bursts_per_row()),
            interleave,
            fields: Fields::new(cfg, interleave),
        }
    }

    /// Decodes a physical block address (units of one burst / 64 B).
    #[inline]
    pub fn decode(&self, block_addr: u64) -> Location {
        if let Some(f) = &self.fields {
            let field = |i: usize| ((block_addr >> f.shift[i]) & f.mask[i]) as usize;
            return Location {
                channel: field(0),
                column: field(1),
                bank: field(2),
                rank: field(3),
                row: block_addr >> f.row_shift,
            };
        }
        let (channel, a) = self.channels.peel(block_addr);
        let (rank, bank, column, row) = match self.interleave {
            Interleave::RowRankBankColChan => {
                let (column, a) = self.bursts_per_row.peel(a);
                let (bank, a) = self.banks.peel(a);
                let (rank, row) = self.ranks.peel(a);
                (rank, bank, column, row)
            }
            Interleave::RowColRankBankChan => {
                let (bank, a) = self.banks.peel(a);
                let (rank, a) = self.ranks.peel(a);
                let (column, row) = self.bursts_per_row.peel(a);
                (rank, bank, column, row)
            }
        };
        Location {
            channel: channel as usize,
            rank: rank as usize,
            bank: bank as usize,
            row,
            column: column as usize,
        }
    }
}

impl Fields {
    fn new(cfg: &DramConfig, interleave: Interleave) -> Option<Self> {
        let sizes = [cfg.channels, cfg.bursts_per_row(), cfg.banks, cfg.ranks];
        if interleave != Interleave::RowRankBankColChan
            || !sizes.iter().all(|s| s.is_power_of_two())
        {
            return None;
        }
        let (mut shift, mut mask, mut at) = ([0; 4], [0; 4], 0);
        for (i, size) in sizes.into_iter().enumerate() {
            shift[i] = at;
            mask[i] = size as u64 - 1;
            at += size.trailing_zeros();
        }
        Some(Fields { shift, mask, row_shift: at })
    }
}

/// Maps ORAM bucket ids to physical block addresses using the sub-tree
/// layout: the tree is cut into subtrees of `subtree_levels` levels; each
/// subtree's buckets are stored contiguously, so one subtree spans few
/// rows and a path access walks one subtree per `subtree_levels` levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeLayout {
    subtree_levels: u32,
    blocks_per_bucket: usize,
    /// `level / subtree_levels` for every level a `u64` heap index can
    /// name: the per-bucket address map divides nothing.
    band_of: [u8; 64],
}

impl SubtreeLayout {
    /// Creates a layout packing `subtree_levels` tree levels per subtree,
    /// with `z` blocks per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `subtree_levels` is 0 or `z` is 0.
    pub fn new(subtree_levels: u32, z: usize) -> Self {
        assert!(subtree_levels > 0 && z > 0);
        SubtreeLayout {
            subtree_levels,
            blocks_per_bucket: z,
            band_of: std::array::from_fn(|level| (level as u32 / subtree_levels) as u8),
        }
    }

    /// Picks the largest subtree depth whose bucket storage fits in one
    /// DRAM row (Ren et al.'s heuristic): `2^k − 1` buckets of `z` blocks
    /// of 64 B per row.
    pub fn fit_to_row(cfg: &DramConfig, z: usize) -> Self {
        let bucket_bytes = z * 64;
        let mut k = 1;
        while ((1usize << (k + 1)) - 1) * bucket_bytes <= cfg.row_bytes {
            k += 1;
        }
        SubtreeLayout::new(k, z)
    }

    /// Subtree depth in levels.
    pub fn subtree_levels(&self) -> u32 {
        self.subtree_levels
    }

    /// Physical block address of slot `slot` of the bucket with 1-based
    /// heap index `bucket_heap`.
    ///
    /// The scheme: group tree levels into bands of `subtree_levels`; within
    /// a band, a bucket belongs to the subtree rooted at its band-top
    /// ancestor. Subtrees are numbered breadth-first and laid out
    /// contiguously.
    pub fn block_addr(&self, bucket_heap: u64, slot: usize) -> u64 {
        debug_assert!(bucket_heap >= 1);
        debug_assert!(slot < self.blocks_per_bucket);
        let k = self.subtree_levels;
        let level = 63 - bucket_heap.leading_zeros();
        let band = u32::from(self.band_of[level as usize]);
        let level_in_band = level - band * k;
        // The band-top ancestor of this bucket.
        let top = bucket_heap >> level_in_band;
        // Index of the subtree: number of subtree roots before `top` in
        // breadth-first order. Subtree roots of band b live at tree level
        // b*k; `top` is one of them.
        let band_base_heap = 1u64 << (band * k);
        let subtree_index = top - band_base_heap;
        // Buckets inside a subtree, breadth-first: level_in_band gives the
        // local level; the local offset is the path below `top`.
        let local_base = (1u64 << level_in_band) - 1;
        let local_offset = bucket_heap - (top << level_in_band);
        let bucket_in_subtree = local_base + local_offset;
        let subtree_buckets = (1u64 << k) - 1;
        // Global bucket number: all buckets in previous bands, plus
        // previous subtrees in this band, plus position inside.
        let buckets_before_band = (1u64 << (band * k)) - 1;
        let global_bucket =
            buckets_before_band + subtree_index * subtree_buckets + bucket_in_subtree;
        global_bucket * self.blocks_per_bucket as u64 + slot as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_round_trips_within_geometry() {
        let cfg = DramConfig::ddr3_1333();
        let m = AddressMapping::new(&cfg, Interleave::RowRankBankColChan);
        let mut seen = std::collections::HashSet::new();
        for a in 0..10_000u64 {
            let loc = m.decode(a);
            assert!(loc.channel < cfg.channels);
            assert!(loc.rank < cfg.ranks);
            assert!(loc.bank < cfg.banks);
            assert!(loc.column < cfg.bursts_per_row());
            assert!(seen.insert(loc), "duplicate location for {a}");
        }
    }

    /// The exact div/mod decode.
    fn div_mod(cfg: &DramConfig, interleave: Interleave, mut a: u64) -> Location {
        let mut digit = |size: usize| {
            let d = (a % size as u64) as usize;
            a /= size as u64;
            d
        };
        let channel = digit(cfg.channels);
        let (rank, bank, column) = match interleave {
            Interleave::RowRankBankColChan => {
                let column = digit(cfg.bursts_per_row());
                let bank = digit(cfg.banks);
                (digit(cfg.ranks), bank, column)
            }
            Interleave::RowColRankBankChan => {
                let bank = digit(cfg.banks);
                let rank = digit(cfg.ranks);
                (rank, bank, digit(cfg.bursts_per_row()))
            }
        };
        Location { channel, rank, bank, row: a, column }
    }

    #[test]
    fn decode_is_div_mod_on_every_geometry() {
        // Powers of two (the field-mask decode under the default
        // interleave), and radices that are not.
        let base = DramConfig::ddr3_1333();
        let odd = DramConfig { channels: 3, ranks: 1, banks: 6, row_bytes: 96 * 64, ..base };
        let one = DramConfig { channels: 1, ranks: 4, ..base };
        for cfg in [base, odd, one] {
            for il in [Interleave::RowRankBankColChan, Interleave::RowColRankBankChan] {
                let m = AddressMapping::new(&cfg, il);
                for a in (0..20_000u64).chain([u64::MAX - 1, u64::MAX]) {
                    assert_eq!(m.decode(a), div_mod(&cfg, il, a), "{cfg:?} {il:?} {a}");
                }
            }
        }
    }

    #[test]
    fn consecutive_blocks_alternate_channels() {
        let cfg = DramConfig::ddr3_1333();
        let m = AddressMapping::new(&cfg, Interleave::RowRankBankColChan);
        assert_ne!(m.decode(0).channel, m.decode(1).channel);
        assert_eq!(m.decode(0).channel, m.decode(2).channel);
    }

    #[test]
    fn subtree_layout_is_injective() {
        let layout = SubtreeLayout::new(3, 4);
        let mut seen = std::collections::HashSet::new();
        for heap in 1u64..512 {
            for slot in 0..4 {
                let a = layout.block_addr(heap, slot);
                assert!(seen.insert(a), "collision at bucket {heap} slot {slot}");
            }
        }
    }

    #[test]
    fn slots_of_a_bucket_are_contiguous() {
        // The engine maps a bucket once and steps through its slots.
        for (k, z) in [(1, 1), (3, 4), (4, 5)] {
            let layout = SubtreeLayout::new(k, z);
            for heap in (1u64..2048).chain([1 << 24, (1 << 25) - 1]) {
                let base = layout.block_addr(heap, 0);
                for slot in 0..z {
                    assert_eq!(layout.block_addr(heap, slot), base + slot as u64);
                }
            }
        }
    }

    #[test]
    fn subtree_layout_is_dense() {
        // All buckets of a complete tree of 9 levels (bands of 3) must map
        // to a contiguous range starting at 0.
        let layout = SubtreeLayout::new(3, 1);
        let total_buckets = (1u64 << 9) - 1;
        let mut addrs: Vec<u64> = (1..=total_buckets).map(|h| layout.block_addr(h, 0)).collect();
        addrs.sort_unstable();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(*a, i as u64, "layout must be dense");
        }
    }

    #[test]
    fn buckets_of_one_subtree_are_contiguous() {
        let layout = SubtreeLayout::new(2, 2);
        // Band 1 subtree rooted at heap 4 contains buckets {4, 8, 9}.
        let addrs: Vec<u64> = [4u64, 8, 9].iter().map(|&h| layout.block_addr(h, 0) / 2).collect();
        let min = *addrs.iter().min().unwrap();
        let max = *addrs.iter().max().unwrap();
        assert_eq!(max - min, 2, "subtree buckets span exactly 3 slots");
    }

    #[test]
    fn fit_to_row_packs_within_row() {
        let cfg = DramConfig::ddr3_1333(); // 8 KB rows
        let layout = SubtreeLayout::fit_to_row(&cfg, 5);
        // (2^(k+1)-1) * 320 <= 8192  →  k = 4 (15 buckets = 4800 B).
        assert_eq!(layout.subtree_levels(), 4);
    }

    #[test]
    fn path_touches_expected_subtree_count() {
        let k = 3;
        let layout = SubtreeLayout::new(k, 4);
        // Walk a root-to-leaf path of 12 levels; count distinct subtrees
        // (by address / blocks-per-subtree).
        let subtree_blocks = ((1u64 << k) - 1) * 4;
        let mut leaf_heap = 1u64 << 11; // leftmost leaf at level 11
        let mut path = Vec::new();
        while leaf_heap >= 1 {
            path.push(leaf_heap);
            if leaf_heap == 1 {
                break;
            }
            leaf_heap >>= 1;
        }
        let mut subtrees = std::collections::HashSet::new();
        for h in path {
            subtrees.insert(layout.block_addr(h, 0) / subtree_blocks);
        }
        assert_eq!(subtrees.len(), 4, "12 levels / 3 per subtree");
    }
}
