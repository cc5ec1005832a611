//! A persistent on-disk bucket store with crash-consistent writes, plus
//! the [`StorageBackend`] wrapper that adds a seek/transfer latency
//! model on top of it.
//!
//! Layout (one directory per ORAM shard):
//!
//! * `buckets.dat` — a 24-byte header (magic, bucket arity `z`, bucket
//!   count) followed by one fixed-size checksummed record per bucket.
//! * `wal.log` — a write-ahead log of the same records. Every bucket
//!   write appends to the WAL (flushed) before touching `buckets.dat`,
//!   so a crash mid-record leaves either a torn WAL tail (the write
//!   never committed; the tail is discarded on recovery) or a torn
//!   in-place record shadowed by a complete WAL entry (replayed on
//!   recovery). A torn bucket is therefore never observable after
//!   [`DiskStore::open`] returns.
//!
//! Records carry an FNV-1a-64 checksum over the bucket id and block
//! payloads; an all-zero (never-written) record fails the checksum and
//! reads as absent rather than as a bucket of garbage.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use oram_dram::{report_blocks, BlockRequest, ChannelStats, EnergyCounters};
use oram_protocol::{Block, BlockAddr, BlockKind, LeafLabel};
use oram_util::{EventBatch, SharedObserver, SharedTelemetry};

use crate::backend::{BatchBreakdown, StorageBackend};

/// `b"ORAMDSK1"` little-endian: identifies `buckets.dat`.
const MAGIC: u64 = u64::from_le_bytes(*b"ORAMDSK1");
/// Bytes per serialized block: kind tag + addr + label + data + version.
const BLOCK_BYTES: usize = 1 + 8 + 8 + 8 + 8;
/// Header bytes in `buckets.dat`: magic, z, bucket count.
const HEADER_BYTES: u64 = 24;
/// WAL records between automatic checkpoints (WAL truncations).
const CHECKPOINT_EVERY: u64 = 1024;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_block(block: &Block, out: &mut Vec<u8>) {
    let kind = match block.kind {
        BlockKind::Dummy => 0u8,
        BlockKind::Real => 1,
        BlockKind::Shadow => 2,
    };
    out.push(kind);
    out.extend_from_slice(&block.addr.raw().to_le_bytes());
    out.extend_from_slice(&block.label.raw().to_le_bytes());
    out.extend_from_slice(&block.data.to_le_bytes());
    out.extend_from_slice(&block.version.to_le_bytes());
}

fn decode_block(bytes: &[u8]) -> Result<Block, String> {
    let kind = match bytes[0] {
        0 => BlockKind::Dummy,
        1 => BlockKind::Real,
        2 => BlockKind::Shadow,
        k => return Err(format!("disk: invalid block kind tag {k}")),
    };
    let u = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    Ok(Block {
        kind,
        addr: BlockAddr::new(u(1)),
        label: LeafLabel::new(u(9)),
        data: u(17),
        version: u(25),
    })
}

/// A bucket whose contents were restored from the write-ahead log when
/// the store was reopened (i.e. the previous process stopped between
/// the WAL append and a durable in-place write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredBucket {
    /// Heap index of the bucket.
    pub bucket: u64,
    /// The committed slot contents replayed over `buckets.dat`.
    pub slots: Vec<Block>,
}

/// The persistent bucket store: fixed-record main file plus
/// write-ahead log. Pure storage — no timing; [`DiskBackend`] layers
/// the latency model on top.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    data: File,
    wal: File,
    z: usize,
    bucket_count: u64,
    wal_records: u64,
    recovered: Vec<RecoveredBucket>,
    scratch: Vec<u8>,
}

impl DiskStore {
    fn record_bytes(z: usize) -> usize {
        8 + z * BLOCK_BYTES + 8
    }

    fn record_offset(&self, bucket: u64) -> u64 {
        HEADER_BYTES + bucket * Self::record_bytes(self.z) as u64
    }

    /// Opens (creating if absent) the store at `dir` for a tree of
    /// `bucket_count` buckets of arity `z`, running crash recovery:
    /// complete write-ahead records are replayed over `buckets.dat`
    /// (fixing any torn in-place write) and a torn WAL tail is
    /// discarded, then the WAL is truncated.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if an existing store's geometry (z,
    /// bucket count) does not match.
    pub fn open(dir: &Path, z: usize, bucket_count: u64) -> Result<DiskStore, String> {
        if z == 0 || bucket_count == 0 {
            return Err("disk: z and bucket_count must be positive".into());
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("disk: create {}: {e}", dir.display()))?;
        let data_path = dir.join("buckets.dat");
        let wal_path = dir.join("wal.log");
        let mut data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&data_path)
            .map_err(|e| format!("disk: open {}: {e}", data_path.display()))?;
        let file_len = data.metadata().map_err(|e| format!("disk: stat buckets.dat: {e}"))?.len();
        let full_len = HEADER_BYTES + bucket_count * Self::record_bytes(z) as u64;
        if file_len == 0 {
            let mut header = Vec::with_capacity(HEADER_BYTES as usize);
            header.extend_from_slice(&MAGIC.to_le_bytes());
            header.extend_from_slice(&(z as u64).to_le_bytes());
            header.extend_from_slice(&bucket_count.to_le_bytes());
            data.write_all(&header).map_err(|e| format!("disk: write header: {e}"))?;
            data.set_len(full_len).map_err(|e| format!("disk: size buckets.dat: {e}"))?;
        } else {
            let mut header = [0u8; HEADER_BYTES as usize];
            data.seek(SeekFrom::Start(0)).map_err(|e| format!("disk: seek: {e}"))?;
            data.read_exact(&mut header).map_err(|e| format!("disk: read header: {e}"))?;
            let field = |o: usize| u64::from_le_bytes(header[o..o + 8].try_into().unwrap());
            if field(0) != MAGIC {
                return Err("disk: buckets.dat has wrong magic".into());
            }
            if field(8) != z as u64 || field(16) != bucket_count {
                return Err(format!(
                    "disk: geometry mismatch: store has z={} buckets={}, expected z={z} buckets={bucket_count}",
                    field(8),
                    field(16)
                ));
            }
            if file_len < full_len {
                // A crash between header write and set_len, or mid-grow:
                // extend to full size (missing records read as absent).
                data.set_len(full_len).map_err(|e| format!("disk: size buckets.dat: {e}"))?;
            }
        }
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| format!("disk: open {}: {e}", wal_path.display()))?;
        let mut store = DiskStore {
            dir: dir.to_path_buf(),
            data,
            wal,
            z,
            bucket_count,
            wal_records: 0,
            recovered: Vec::new(),
            scratch: Vec::with_capacity(Self::record_bytes(z)),
        };
        store.recover()?;
        Ok(store)
    }

    /// Replays complete, checksum-valid WAL records over `buckets.dat`,
    /// discards the torn tail (if any), then truncates the WAL.
    fn recover(&mut self) -> Result<(), String> {
        let mut log = Vec::new();
        self.wal.seek(SeekFrom::Start(0)).map_err(|e| format!("disk: seek wal: {e}"))?;
        self.wal.read_to_end(&mut log).map_err(|e| format!("disk: read wal: {e}"))?;
        let rec = Self::record_bytes(self.z);
        for chunk in log.chunks_exact(rec) {
            let body = &chunk[..rec - 8];
            let stored = u64::from_le_bytes(chunk[rec - 8..].try_into().unwrap());
            if fnv1a(body) != stored {
                break; // torn tail: this record never committed
            }
            let bucket = u64::from_le_bytes(chunk[..8].try_into().unwrap());
            if bucket >= self.bucket_count {
                break; // corrupt id: treat like a torn record
            }
            let mut slots = Vec::with_capacity(self.z);
            for s in 0..self.z {
                slots.push(decode_block(&chunk[8 + s * BLOCK_BYTES..])?);
            }
            let off = self.record_offset(bucket);
            self.data.seek(SeekFrom::Start(off)).map_err(|e| format!("disk: seek: {e}"))?;
            self.data.write_all(chunk).map_err(|e| format!("disk: replay: {e}"))?;
            self.recovered.push(RecoveredBucket { bucket, slots });
        }
        self.data.flush().map_err(|e| format!("disk: flush: {e}"))?;
        self.truncate_wal()
    }

    fn truncate_wal(&mut self) -> Result<(), String> {
        self.wal.set_len(0).map_err(|e| format!("disk: truncate wal: {e}"))?;
        self.wal.seek(SeekFrom::Start(0)).map_err(|e| format!("disk: seek wal: {e}"))?;
        self.wal_records = 0;
        Ok(())
    }

    /// Buckets restored from the WAL by the last [`DiskStore::open`].
    pub fn recovered(&self) -> &[RecoveredBucket] {
        &self.recovered
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bucket arity the store was opened with.
    pub fn z(&self) -> usize {
        self.z
    }

    /// Durably writes one bucket: WAL append (flushed) first, then the
    /// in-place record, with an automatic checkpoint every
    /// [`CHECKPOINT_EVERY`] writes.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if `slots.len() != z` / `bucket` out of
    /// range.
    pub fn write_bucket(&mut self, bucket: u64, slots: &[Block]) -> Result<(), String> {
        if bucket >= self.bucket_count {
            return Err(format!("disk: bucket {bucket} out of range"));
        }
        if slots.len() != self.z {
            return Err(format!("disk: got {} slots, store has z={}", slots.len(), self.z));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&bucket.to_le_bytes());
        for b in slots {
            encode_block(b, &mut self.scratch);
        }
        let sum = fnv1a(&self.scratch);
        self.scratch.extend_from_slice(&sum.to_le_bytes());
        self.wal.write_all(&self.scratch).map_err(|e| format!("disk: wal append: {e}"))?;
        self.wal.flush().map_err(|e| format!("disk: wal flush: {e}"))?;
        let off = self.record_offset(bucket);
        self.data.seek(SeekFrom::Start(off)).map_err(|e| format!("disk: seek: {e}"))?;
        self.data.write_all(&self.scratch).map_err(|e| format!("disk: write: {e}"))?;
        self.wal_records += 1;
        if self.wal_records >= CHECKPOINT_EVERY {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Forces the in-place file down and truncates the WAL. Called
    /// automatically every [`CHECKPOINT_EVERY`] writes.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn checkpoint(&mut self) -> Result<(), String> {
        self.data.flush().map_err(|e| format!("disk: flush: {e}"))?;
        self.truncate_wal()
    }

    /// Reads one bucket; `Ok(None)` if it was never written.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an out-of-range index, or a checksum
    /// mismatch (a torn record — impossible after a clean
    /// [`DiskStore::open`]).
    pub fn read_bucket(&mut self, bucket: u64) -> Result<Option<Vec<Block>>, String> {
        if bucket >= self.bucket_count {
            return Err(format!("disk: bucket {bucket} out of range"));
        }
        let rec = Self::record_bytes(self.z);
        self.scratch.clear();
        self.scratch.resize(rec, 0);
        let off = self.record_offset(bucket);
        self.data.seek(SeekFrom::Start(off)).map_err(|e| format!("disk: seek: {e}"))?;
        self.data.read_exact(&mut self.scratch).map_err(|e| format!("disk: read: {e}"))?;
        if self.scratch.iter().all(|&b| b == 0) {
            return Ok(None); // never written
        }
        let body = &self.scratch[..rec - 8];
        let stored = u64::from_le_bytes(self.scratch[rec - 8..].try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(format!("disk: torn record for bucket {bucket}"));
        }
        let id = u64::from_le_bytes(self.scratch[..8].try_into().unwrap());
        if id != bucket {
            return Err(format!("disk: record id {id} does not match bucket {bucket}"));
        }
        let mut slots = Vec::with_capacity(self.z);
        for s in 0..self.z {
            slots.push(decode_block(&self.scratch[8 + s * BLOCK_BYTES..])?);
        }
        Ok(Some(slots))
    }
}

/// Configuration for [`DiskBackend`]: where the store lives, its
/// geometry, and the latency model.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Directory holding `buckets.dat` and `wal.log`.
    pub dir: PathBuf,
    /// Bucket arity (slots per bucket), matching the ORAM tree.
    pub z: usize,
    /// Number of buckets in the tree.
    pub bucket_count: u64,
    /// Positioning cost (seek/settle) charged once per batch, in
    /// backend cycles. Attributed to the `row` component.
    pub per_op_cycles: u64,
    /// Media transfer cost per block, in backend cycles.
    pub per_block_cycles: u64,
}

impl DiskConfig {
    /// A config with SSD-class default timing (~50 µs positioning,
    /// fast streaming) for the given store location and geometry.
    pub fn new(dir: PathBuf, z: usize, bucket_count: u64) -> Self {
        DiskConfig { dir, z, bucket_count, per_op_cycles: 40_000, per_block_cycles: 24 }
    }
}

/// [`DiskStore`] behind [`StorageBackend`]: deterministic
/// positioning + transfer timing for the engine, durable bucket
/// payloads on the side.
///
/// The persistent copy is a write-behind mirror of the in-memory tree
/// (the engine pushes post-eviction bucket contents via
/// [`StorageBackend::persist_bucket`]); reads are served from memory,
/// so the timing model charges positioning plus serialized block
/// transfers without consulting the files on the hot path.
#[derive(Debug)]
pub struct DiskBackend {
    cfg: DiskConfig,
    store: DiskStore,
    bus: EventBatch,
    stats: ChannelStats,
    last: Option<BatchBreakdown>,
    io_error: Option<String>,
}

impl DiskBackend {
    /// Opens the store (running crash recovery) and builds the backend.
    ///
    /// # Errors
    ///
    /// Propagates [`DiskStore::open`] failures and rejects a
    /// zero-cycle transfer model.
    pub fn new(cfg: DiskConfig) -> Result<Self, String> {
        if cfg.per_block_cycles == 0 {
            return Err("disk: per_block_cycles must be positive".into());
        }
        let store = DiskStore::open(&cfg.dir, cfg.z, cfg.bucket_count)?;
        Ok(DiskBackend {
            cfg,
            store,
            bus: EventBatch::default(),
            stats: ChannelStats::default(),
            last: None,
            io_error: None,
        })
    }

    /// The underlying persistent store.
    pub fn store(&mut self) -> &mut DiskStore {
        &mut self.store
    }

    /// First persistence I/O error since the last call, if any. The
    /// trait's persistence hook cannot return errors, so failures are
    /// latched here for the caller to surface at run boundaries.
    pub fn take_io_error(&mut self) -> Option<String> {
        self.io_error.take()
    }
}

impl StorageBackend for DiskBackend {
    fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    ) {
        report_blocks(&mut self.bus, reqs);
        finishes.clear();
        finishes.resize(reqs.len(), 0);
        if reqs.is_empty() {
            self.last = None;
            return;
        }
        let per_op = self.cfg.per_op_cycles as i64;
        let per_block = self.cfg.per_block_cycles as i64;
        for (i, r) in reqs.iter().enumerate() {
            if r.is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            // One positioning op, then blocks stream off the device in
            // submission order. XOR compression happens at the hub, so
            // the device-side transfer cost is the same either way.
            let _ = occupy_bus;
            finishes[i] = now + per_op + (i as i64 + 1) * per_block;
        }
        let n = reqs.len() as i64;
        self.last = Some(BatchBreakdown {
            queue: 0,
            row: per_op as u64,
            network: 0,
            transfer: (n * per_block) as u64,
            finish: now + per_op + n * per_block,
        });
    }

    fn last_batch_breakdown(&self) -> Option<BatchBreakdown> {
        self.last
    }

    fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.bus.set_observer(observer);
    }

    fn set_telemetry(&mut self, _telemetry: Option<SharedTelemetry>) {}

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn energy(&self) -> EnergyCounters {
        EnergyCounters::default()
    }

    fn wants_payloads(&self) -> bool {
        true
    }

    fn persist_bucket(&mut self, bucket: u64, slots: &[Block]) {
        if let Err(e) = self.store.write_bucket(bucket, slots) {
            self.io_error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;

    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("oram-storage-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn bucket(seed: u64, z: usize) -> Vec<Block> {
        (0..z as u64)
            .map(|s| {
                let v = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(s);
                match v % 3 {
                    0 => Block::DUMMY,
                    1 => Block::real(BlockAddr::new(v % 512), LeafLabel::new(v % 64), v, seed),
                    _ => Block::real(BlockAddr::new(v % 512), LeafLabel::new(v % 64), v, seed)
                        .to_shadow(),
                }
            })
            .collect()
    }

    #[test]
    fn round_trips_buckets_across_reopen() {
        let tmp = TempDir::new("roundtrip");
        let (z, n) = (4, 31u64);
        {
            let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
            for b in [0u64, 7, 30] {
                store.write_bucket(b, &bucket(b + 1, z)).unwrap();
            }
            assert_eq!(store.read_bucket(7).unwrap().unwrap(), bucket(8, z));
            assert_eq!(store.read_bucket(5).unwrap(), None);
        }
        let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
        for b in [0u64, 7, 30] {
            assert_eq!(store.read_bucket(b).unwrap().unwrap(), bucket(b + 1, z));
        }
        assert_eq!(store.read_bucket(12).unwrap(), None);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let tmp = TempDir::new("geometry");
        drop(DiskStore::open(&tmp.0, 4, 31).unwrap());
        assert!(DiskStore::open(&tmp.0, 5, 31).is_err());
        assert!(DiskStore::open(&tmp.0, 4, 63).is_err());
    }

    #[test]
    fn torn_wal_tail_is_discarded() {
        let tmp = TempDir::new("torntail");
        let (z, n) = (3, 15u64);
        {
            let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
            store.write_bucket(2, &bucket(100, z)).unwrap();
        }
        // Simulate a crash mid-append: a partial record at the WAL tail.
        let mut wal = OpenOptions::new().append(true).open(tmp.0.join("wal.log")).unwrap();
        wal.write_all(&[0xAB; 17]).unwrap();
        drop(wal);
        let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
        assert_eq!(store.read_bucket(2).unwrap().unwrap(), bucket(100, z));
        // Only the complete record is replayed; the 17 garbage bytes
        // never form a committed write.
        assert_eq!(store.recovered(), &[RecoveredBucket { bucket: 2, slots: bucket(100, z) }]);
    }

    #[test]
    fn torn_inplace_write_is_repaired_from_wal() {
        let tmp = TempDir::new("tornplace");
        let (z, n) = (3, 15u64);
        let rec = DiskStore::record_bytes(z) as u64;
        {
            let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
            store.write_bucket(6, &bucket(42, z)).unwrap();
        }
        // Simulate a crash mid in-place write: scribble over half the
        // record in buckets.dat while the WAL still holds it complete.
        let mut data = OpenOptions::new().write(true).open(tmp.0.join("buckets.dat")).unwrap();
        data.seek(SeekFrom::Start(HEADER_BYTES + 6 * rec)).unwrap();
        data.write_all(&vec![0xEE; rec as usize / 2]).unwrap();
        drop(data);
        let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
        assert_eq!(store.recovered(), &[RecoveredBucket { bucket: 6, slots: bucket(42, z) }]);
        assert_eq!(store.read_bucket(6).unwrap().unwrap(), bucket(42, z));
    }

    /// The crash-consistency property: across randomized write
    /// sequences interrupted at arbitrary byte positions (torn WAL
    /// tail, torn in-place record, or both), reopening the store never
    /// observes a torn bucket — every bucket reads back as one of the
    /// values actually committed for it, in full.
    #[test]
    fn kill_and_reopen_never_observes_a_torn_bucket() {
        let tmp = TempDir::new("killreopen");
        let (z, n) = (4, 15u64);
        let rec = DiskStore::record_bytes(z) as u64;
        let mut rng = 0x5eed_cafe_f00d_1234u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // history[b] = every value ever committed for bucket b.
        let mut history: Vec<Vec<Vec<Block>>> = vec![Vec::new(); n as usize];
        let mut seed = 0u64;
        for _case in 0..40 {
            let mut wrote = Vec::new();
            {
                let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
                for _ in 0..(next() % 6 + 1) {
                    let b = next() % n;
                    seed += 1;
                    let slots = bucket(seed, z);
                    store.write_bucket(b, &slots).unwrap();
                    history[b as usize].push(slots);
                    wrote.push(b);
                }
                // Crash: drop without checkpoint.
            }
            match next() % 3 {
                0 => {
                    // Tear the WAL tail at a random byte boundary.
                    let wal = tmp.0.join("wal.log");
                    let len = std::fs::metadata(&wal).unwrap().len();
                    if len > 0 {
                        let keep = next() % len;
                        OpenOptions::new().write(true).open(&wal).unwrap().set_len(keep).unwrap();
                    }
                }
                1 => {
                    // Tear the in-place record of a bucket written this
                    // session (a crash only tears the record being
                    // written, which the WAL still shadows complete).
                    let b = wrote[(next() % wrote.len() as u64) as usize];
                    let cut = next() % rec;
                    let mut data =
                        OpenOptions::new().write(true).open(tmp.0.join("buckets.dat")).unwrap();
                    data.seek(SeekFrom::Start(HEADER_BYTES + b * rec + cut)).unwrap();
                    data.write_all(&vec![0xDD; (rec - cut) as usize]).unwrap();
                }
                _ => {} // clean crash: both files intact
            }
            let mut store = DiskStore::open(&tmp.0, z, n).unwrap();
            for b in 0..n {
                match store.read_bucket(b).unwrap() {
                    Some(slots) => assert!(
                        history[b as usize].contains(&slots),
                        "bucket {b} holds a value never committed"
                    ),
                    None => {
                        assert!(history[b as usize].is_empty(), "bucket {b} lost committed data")
                    }
                }
            }
        }
    }

    #[test]
    fn backend_timing_partitions_and_persists() {
        let tmp = TempDir::new("backend");
        let cfg = DiskConfig {
            dir: tmp.0.clone(),
            z: 4,
            bucket_count: 31,
            per_op_cycles: 1000,
            per_block_cycles: 10,
        };
        let mut be = DiskBackend::new(cfg).unwrap();
        assert!(be.wants_payloads());
        let reqs: Vec<BlockRequest> = (0..6).map(BlockRequest::read).collect();
        let mut f = Vec::new();
        be.service_batch_into(500, &reqs, true, &mut f);
        assert_eq!(f[0], 500 + 1000 + 10);
        assert_eq!(f[5], 500 + 1000 + 60);
        let bd = be.last_batch_breakdown().unwrap();
        assert_eq!(bd.queue + bd.row + bd.network + bd.transfer, (bd.finish - 500) as u64);
        assert_eq!(bd.row, 1000);
        assert_eq!(bd.network, 0);
        be.persist_bucket(3, &bucket(9, 4));
        assert!(be.take_io_error().is_none());
        assert_eq!(be.store().read_bucket(3).unwrap().unwrap(), bucket(9, 4));
    }
}
