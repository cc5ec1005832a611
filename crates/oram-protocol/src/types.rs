//! Fundamental value types shared across the ORAM protocol.
//!
//! Everything in this module is deliberately small and `Copy`: these types
//! flow through the hot path of the simulator (millions of block moves per
//! run), and they also appear in externally visible traces, so they must be
//! cheap to clone and compare.

use std::fmt;

/// A program (logical) block address, i.e. the address space the CPU's last
/// level cache misses into. One `BlockAddr` names one 64-byte data block.
///
/// ```
/// use oram_protocol::BlockAddr;
/// let a = BlockAddr::new(42);
/// assert_eq!(a.raw(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from its raw index.
    pub const fn new(raw: u64) -> Self {
        BlockAddr(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// A leaf label in the ORAM tree, in `0..2^L`.
///
/// The Path ORAM invariant ties every data block to a leaf label: a block
/// labelled `l` is either in the stash or somewhere on the path from the
/// root to leaf `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafLabel(u64);

impl LeafLabel {
    /// Creates a leaf label from its raw value.
    pub const fn new(raw: u64) -> Self {
        LeafLabel(raw)
    }

    /// Returns the raw label value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LeafLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leaf#{}", self.0)
    }
}

/// Monotonic per-address version number used by the trusted controller to
/// detect stale copies (both stale shadow blocks and stale real copies left
/// in the tree by read-only path reads).
///
/// Every remap (a read's included) and every write bumps it, so a copy is
/// current exactly when its version equals the position map's — the label
/// needs no second check — and every block has exactly one current real
/// copy. The paper states that "stale shadow blocks are invalidated in the
/// path read" without specifying a mechanism; a trusted-side version
/// counter is the cleanest realization and has no externally visible effect.
pub type Version = u64;

/// What kind of content a block slot holds.
///
/// In the real hardware all three are ciphertext-indistinguishable; the
/// distinction lives in the (encrypted) block header and is visible only to
/// the ORAM controller after decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// A dummy block: meaningless filler, discarded on read.
    Dummy,
    /// A real data block: the single authoritative copy of its address.
    Real,
    /// A shadow block: a duplicate of a real block's data placed in what
    /// would otherwise be a dummy slot (the paper's contribution).
    Shadow,
}

impl BlockKind {
    /// Returns `true` for `Real` and `Shadow` blocks (anything carrying
    /// program data).
    pub fn carries_data(self) -> bool {
        !matches!(self, BlockKind::Dummy)
    }
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockKind::Dummy => "dummy",
            BlockKind::Real => "real",
            BlockKind::Shadow => "shadow",
        };
        f.write_str(s)
    }
}

/// A decrypted block as seen inside the ORAM controller:
/// `(shadow bit, data, label, addr)` per Fig. 7(a) of the paper, plus the
/// version number used for stale-copy invalidation.
///
/// `data` models the 64-byte payload as a single value token; the simulator
/// only needs to check *which* value a read returns, not its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Content kind (the "shadow bit" generalized to a three-way tag so a
    /// dummy can be represented uniformly).
    pub kind: BlockKind,
    /// Program address (meaningless for dummies).
    pub addr: BlockAddr,
    /// Leaf label this copy is bound to (meaningless for dummies).
    pub label: LeafLabel,
    /// Payload value token.
    pub data: u64,
    /// Trusted-side version stamp; copies older than the controller's
    /// per-address counter are stale and discarded on load.
    pub version: Version,
}

impl Block {
    /// A dummy block. Dummy payloads are never observed, so the content is
    /// fixed; probabilistic encryption is what makes them indistinguishable
    /// on the real hardware.
    pub const DUMMY: Block = Block {
        kind: BlockKind::Dummy,
        addr: BlockAddr::new(u64::MAX),
        label: LeafLabel::new(0),
        data: 0,
        version: 0,
    };

    /// Creates a real data block.
    pub fn real(addr: BlockAddr, label: LeafLabel, data: u64, version: Version) -> Self {
        Block { kind: BlockKind::Real, addr, label, data, version }
    }

    /// Creates a shadow copy of `self` bound to the same address, data and
    /// version but (potentially) a different position in the tree.
    ///
    /// The caller is responsible for honoring Rule-2 (the shadow must land
    /// strictly closer to the root than the copied block).
    pub fn to_shadow(&self) -> Block {
        debug_assert!(self.kind.carries_data());
        Block { kind: BlockKind::Shadow, ..*self }
    }

    /// Returns `true` if this is a dummy slot.
    pub fn is_dummy(&self) -> bool {
        self.kind == BlockKind::Dummy
    }

    /// Returns `true` if this is a shadow copy.
    pub fn is_shadow(&self) -> bool {
        self.kind == BlockKind::Shadow
    }

    /// Returns `true` if this is the authoritative real copy.
    pub fn is_real(&self) -> bool {
        self.kind == BlockKind::Real
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::DUMMY
    }
}

/// Memory operation type of a CPU request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read the block.
    Read,
    /// Overwrite the block's payload.
    Write,
}

impl Op {
    /// Returns `true` for [`Op::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, Op::Write)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Read => "read",
            Op::Write => "write",
        })
    }
}

/// A single memory request as issued by the LLC: `(addr, op, data)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Target block address.
    pub addr: BlockAddr,
    /// Read or write.
    pub op: Op,
    /// Payload for writes (ignored for reads).
    pub data: u64,
}

impl Request {
    /// Convenience constructor for a read request.
    pub fn read(addr: BlockAddr) -> Self {
        Request { addr, op: Op::Read, data: 0 }
    }

    /// Convenience constructor for a write request.
    pub fn write(addr: BlockAddr, data: u64) -> Self {
        Request { addr, op: Op::Write, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_is_dummy() {
        assert!(Block::DUMMY.is_dummy());
        assert!(!Block::DUMMY.is_real());
        assert!(!Block::DUMMY.kind.carries_data());
    }

    #[test]
    fn shadow_preserves_identity() {
        let b = Block::real(BlockAddr::new(7), LeafLabel::new(3), 99, 5);
        let s = b.to_shadow();
        assert!(s.is_shadow());
        assert_eq!(s.addr, b.addr);
        assert_eq!(s.label, b.label);
        assert_eq!(s.data, b.data);
        assert_eq!(s.version, b.version);
    }

    #[test]
    fn request_constructors() {
        let r = Request::read(BlockAddr::new(1));
        assert_eq!(r.op, Op::Read);
        let w = Request::write(BlockAddr::new(2), 10);
        assert!(w.op.is_write());
        assert_eq!(w.data, 10);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", BlockAddr::new(0)).is_empty());
        assert!(!format!("{}", LeafLabel::new(0)).is_empty());
        assert!(!format!("{}", BlockKind::Shadow).is_empty());
        assert!(!format!("{}", Op::Read).is_empty());
    }
}
