//! The trusted ORAM controller: Tiny ORAM's access protocol with optional
//! shadow-block duplication.
//!
//! One CPU request proceeds through the steps of Sec. II-C:
//!
//! 1. query the stash; a hit is served on chip;
//! 2. on a miss, look up the leaf label in the position map;
//! 3. read the whole path (*read-only phase*), forwarding the requested
//!    data the moment the first current copy — real **or shadow** — is
//!    decrypted (Algorithm 2);
//! 4. after every `A − 1` read-only accesses, run one eviction: read the
//!    next reverse-lexicographic path and rewrite it from the stash
//!    (*read-write phase*), filling dummy slots with shadow copies per the
//!    duplication policy (Algorithm 1).
//!
//! The controller is purely functional with respect to time: it reports
//! *what* was accessed and *at which flat block position* data became
//! available; the system simulator turns that into cycles via the DRAM
//! model.

use oram_util::{BusEvent, BusPhase, EventBatch, MetricId, Rng64, SharedObserver, SharedTelemetry};

use crate::access::{AccessResult, PathPhase, PhaseKind, PhaseList, ServedFrom};
use crate::config::OramConfig;
use crate::hotcache::HotAddressCache;
use crate::posmap::{build_posmap, PosMap, PosmapPhase, RealCopySite};
use crate::shadow::{
    scheme_for_slot, DupCandidate, DupPolicy, DupQueues, DynamicPartitioner, SlotScheme,
};
use crate::stash::Stash;
use crate::tree::{BucketId, EvictionOrder, OramTree, TreeShape};
use crate::types::{Block, BlockAddr, LeafLabel, Op, Request, Version};

/// Aggregate statistics of one controller instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Real (CPU-originated) requests processed.
    pub real_requests: u64,
    /// Dummy requests processed (timing protection).
    pub dummy_requests: u64,
    /// Requests served by a stash hit (no path read needed).
    pub stash_served: u64,
    /// Stash-hit requests whose resident entry was a shadow or evicted
    /// copy (i.e. hits the baseline controller could not have had live).
    pub replaceable_stash_served: u64,
    /// Stash-hit requests served specifically by a shadow-kind entry — a
    /// hit class that only exists with duplication enabled (HD-Dup's
    /// "cache hot data into the stash" effect).
    pub shadow_stash_served: u64,
    /// Requests whose data was found in the on-chip treetop levels.
    pub treetop_served: u64,
    /// Requests served by the DRAM path read via a shadow copy strictly
    /// earlier than the real copy would have been.
    pub shadow_advanced: u64,
    /// Requests served by the DRAM path read (any copy).
    pub dram_served: u64,
    /// First-touch requests (no copy existed).
    pub fresh_served: u64,
    /// Sum of flat serving positions for `dram_served` accesses.
    pub served_position_sum: u64,
    /// Sum of the path positions the *real* copy occupied for accesses in
    /// `shadow_advanced` (to quantify how much earlier shadows are).
    pub real_position_sum: u64,
    /// Read-only path reads issued.
    pub ro_path_reads: u64,
    /// Evictions (read+write path pairs) issued.
    pub evictions: u64,
    /// Shadow blocks written by RD-Dup.
    pub rd_shadows_written: u64,
    /// Shadow blocks written by HD-Dup.
    pub hd_shadows_written: u64,
    /// Real blocks written back by evictions.
    pub real_blocks_written: u64,
    /// Dummy blocks written by evictions (slots no scheme could fill).
    pub dummy_blocks_written: u64,
    /// Stale copies discarded by the version/label check on load.
    pub stale_discarded: u64,
    /// Stash-resident shadow entries offered as duplication candidates
    /// across all evictions (recirculation supply).
    pub stash_shadow_candidates: u64,
    /// Shadow writes whose source was a recirculated stash shadow.
    pub recirculated_shadows: u64,
}

impl OramStats {
    /// Applies `f` to each counter of `self` and the same counter of
    /// `other`: the one field list behind every sum and difference of
    /// these statistics (a counter added to the struct but not here
    /// fails to compile).
    pub fn zip_counters(&mut self, other: &Self, mut f: impl FnMut(&mut u64, u64)) {
        let OramStats {
            real_requests,
            dummy_requests,
            stash_served,
            replaceable_stash_served,
            shadow_stash_served,
            treetop_served,
            shadow_advanced,
            dram_served,
            fresh_served,
            served_position_sum,
            real_position_sum,
            ro_path_reads,
            evictions,
            rd_shadows_written,
            hd_shadows_written,
            real_blocks_written,
            dummy_blocks_written,
            stale_discarded,
            stash_shadow_candidates,
            recirculated_shadows,
        } = self;
        f(real_requests, other.real_requests);
        f(dummy_requests, other.dummy_requests);
        f(stash_served, other.stash_served);
        f(replaceable_stash_served, other.replaceable_stash_served);
        f(shadow_stash_served, other.shadow_stash_served);
        f(treetop_served, other.treetop_served);
        f(shadow_advanced, other.shadow_advanced);
        f(dram_served, other.dram_served);
        f(fresh_served, other.fresh_served);
        f(served_position_sum, other.served_position_sum);
        f(real_position_sum, other.real_position_sum);
        f(ro_path_reads, other.ro_path_reads);
        f(evictions, other.evictions);
        f(rd_shadows_written, other.rd_shadows_written);
        f(hd_shadows_written, other.hd_shadows_written);
        f(real_blocks_written, other.real_blocks_written);
        f(dummy_blocks_written, other.dummy_blocks_written);
        f(stale_discarded, other.stale_discarded);
        f(stash_shadow_candidates, other.stash_shadow_candidates);
        f(recirculated_shadows, other.recirculated_shadows);
    }

    /// Mean flat block position at which DRAM-served requests completed.
    pub fn mean_served_position(&self) -> f64 {
        if self.dram_served == 0 {
            0.0
        } else {
            self.served_position_sum as f64 / self.dram_served as f64
        }
    }

    /// Fraction of real requests served on chip (stash or treetop) — the
    /// paper's Fig. 16 metric.
    pub fn on_chip_hit_rate(&self) -> f64 {
        if self.real_requests == 0 {
            0.0
        } else {
            (self.stash_served + self.treetop_served) as f64 / self.real_requests as f64
        }
    }
}

/// Counter slots of a telemetry snapshot: every counter metric, indexed
/// by [`MetricId::index`]. The service-layer counters among them stay 0.
const COUNTERS: usize = MetricId::ServedPosition as usize;

/// The distribution samples one access half takes. The controller fills
/// it whether or not a sink is attached; [`OramController::report`]
/// hands it over and clears it.
#[derive(Debug, Clone, Copy, Default)]
struct HalfSamples {
    served_position: Option<u64>,
    real_position: Option<u64>,
    advance_depth: Option<u64>,
    partition_level: Option<u64>,
    stash_occupancy: Option<u64>,
    dup_queue_depth: Option<u64>,
}

/// Deliberate protocol faults for auditor validation (test-only).
///
/// The `oram-audit` crate must be able to prove that its trace, statistical
/// and state checks actually catch protocol faults, so this enum — compiled
/// only under the `mutants` cargo feature, which nothing but audit
/// dev-dependencies enables — injects five breaks: two the bus shows (a
/// bucket missing from an eviction write, biased leaf remapping) and three
/// only [`OramController::check_invariants`] can see (a second current
/// real copy, a lost block, a stash shadow carrying a stale level).
#[cfg(feature = "mutants")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutant {
    /// No fault: the honest protocol.
    #[default]
    None,
    /// The eviction write half skips rewriting the leaf-level bucket —
    /// the "forgot to dummy-fill one bucket" class of bug. Externally
    /// visible as a short write phase.
    SkipLeafRewrite,
    /// Remaps accessed blocks to the lower half of the leaf space — the
    /// "RNG misuse" class of bug. Externally visible only statistically.
    BiasedRemap,
    /// A read's remap keeps the version, as remaps once did: a same-version
    /// copy left on the path read stays current under its old label, a
    /// second current real copy. Invisible on the bus.
    ReadRemapKeepsVersion,
    /// The eviction write half drops its first planned real block: it is
    /// never written back, and the stash keeps it only as a freed slot.
    /// Invisible on the bus.
    DropOnDrain,
    /// A path read admits a shadow into the stash carrying the level of
    /// the bucket it was read from rather than its real copy's: a stale
    /// Rule-2 bound for every recirculation of it. Invisible on the bus.
    StaleShadowLevel,
}

/// Continuation token between [`OramController::access_issue`] and
/// [`OramController::access_complete`], carrying the two facts the
/// completion half needs: whether a bus transaction is open at all, and
/// whether the eviction cadence fired on this access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTicket {
    /// `true` when the issue half opened a bus transaction that still
    /// needs its completion half (always `false` for stash hits, which
    /// never reach the bus).
    open: bool,
    /// `true` when the completion half must run an eviction.
    eviction_due: bool,
}

impl AccessTicket {
    /// Whether the access still needs [`OramController::access_complete`].
    pub fn open(&self) -> bool {
        self.open
    }

    /// Whether the completion half will run an eviction pair.
    pub fn eviction_due(&self) -> bool {
        self.eviction_due
    }
}

/// The ORAM controller.
///
/// ```
/// use oram_protocol::{OramController, OramConfig, Request, BlockAddr};
///
/// # fn main() {
/// let mut ctl = OramController::new(OramConfig::small_test()).unwrap();
/// ctl.access(Request::write(BlockAddr::new(5), 1234));
/// let r = ctl.access(Request::read(BlockAddr::new(5)));
/// assert_eq!(r.value, 1234);
/// # }
/// ```
#[derive(Debug)]
pub struct OramController {
    cfg: OramConfig,
    shape: TreeShape,
    tree: OramTree,
    stash: Stash,
    /// The position map, with the index and front selected by
    /// [`OramConfig::posmap`].
    posmap: PosMap,
    hot: HotAddressCache,
    eviction_order: EvictionOrder,
    dynamic: Option<DynamicPartitioner>,
    rng: Rng64,
    ro_since_eviction: u32,
    stats: OramStats,
    /// Reusable root→leaf path buffer: after the first access it is a
    /// `path_into` refill, never a fresh allocation.
    path_buf: Vec<BucketId>,
    /// Reusable `Z`-block scratch the eviction write half composes each
    /// bucket in before handing it to [`OramTree::write_bucket`].
    bucket_buf: Vec<Block>,
    /// Duplication-candidate queues for the eviction write half, sized
    /// here for the most one path write can offer them: every stash
    /// slot a shadow, every path slot a real block.
    dup_queues: DupQueues,
    /// Optional bus observer (see [`oram_util::observe`]): detached in
    /// production, so the hot path pays one branch and nothing else.
    /// Attached, each access half buffers its events here and hands them
    /// over in one call when it returns.
    bus: EventBatch,
    /// Optional telemetry sink (see [`oram_util::telemetry`]): the
    /// designer-facing counterpart of the bus observer. Each access half
    /// ends in one [`OramController::report`] to it.
    telemetry: Option<SharedTelemetry>,
    /// Counter totals at the last report: the next one sends the deltas.
    reported: [u64; COUNTERS],
    /// This access half's samples, reported with its counter deltas.
    samples: HalfSamples,
    /// Shadow blocks pulled from the tree into the stash by path reads.
    shadow_pulls: u64,
    /// Injected protocol fault (auditor validation only).
    #[cfg(feature = "mutants")]
    mutant: Mutant,
}

impl OramController {
    /// Builds a controller (and its all-dummy tree) from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the validation error string if `cfg` is inconsistent.
    pub fn new(cfg: OramConfig) -> Result<Self, String> {
        cfg.validate()?;
        let shape = TreeShape::new(cfg.levels, cfg.z);
        let dynamic = match cfg.dup_policy {
            DupPolicy::Dynamic { counter_bits } => {
                Some(DynamicPartitioner::new(counter_bits, cfg.levels))
            }
            _ => None,
        };
        Ok(OramController {
            shape,
            tree: OramTree::new(shape),
            stash: Stash::new(cfg.stash_capacity),
            posmap: build_posmap(&cfg, shape),
            hot: HotAddressCache::new(cfg.hot_cache_sets, cfg.hot_cache_ways),
            eviction_order: EvictionOrder::new(cfg.levels),
            dynamic,
            rng: Rng64::seed_from_u64(cfg.seed),
            ro_since_eviction: 0,
            stats: OramStats::default(),
            path_buf: Vec::with_capacity(cfg.levels as usize + 1),
            bucket_buf: vec![Block::DUMMY; cfg.z],
            dup_queues: DupQueues::new(shape, cfg.stash_capacity + shape.blocks_per_path()),
            bus: EventBatch::default(),
            telemetry: None,
            reported: [0; COUNTERS],
            samples: HalfSamples::default(),
            shadow_pulls: 0,
            #[cfg(feature = "mutants")]
            mutant: Mutant::None,
            cfg,
        })
    }

    /// Attaches (or with `None` detaches) a bus observer receiving every
    /// externally visible event: access framing, bucket reads and writes
    /// in issue order, and — interleaved as `PosmapBucket` events — the
    /// recursive position map's walk traffic. Stash hits emit nothing —
    /// they never reach the bus.
    pub fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.bus.set_observer(observer);
    }

    /// Injects a deliberate protocol fault (auditor validation only).
    #[cfg(feature = "mutants")]
    pub fn set_mutant(&mut self, mutant: Mutant) {
        self.mutant = mutant;
    }

    /// Attaches (or with `None` detaches) a telemetry sink receiving the
    /// controller-internal event stream: stash hit classes, serving
    /// positions, shadow pulls, DRI transitions, duplication-queue
    /// depths. Unlike the bus observer this sees *trusted-side* state an
    /// adversary never could. Counters start from the moment of attach.
    pub fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>) {
        self.telemetry = telemetry;
        self.reported = self.counter_totals();
    }

    #[inline]
    fn emit(&mut self, event: BusEvent) {
        self.bus.push(event);
    }

    /// Every counter metric as a total over state the controller keeps.
    fn counter_totals(&self) -> [u64; COUNTERS] {
        let s = &self.stats;
        let (hot, plb) = (self.hot.stats(), self.posmap.plb_stats());
        let (dri_up, dri_down, shifts) = self.dynamic.map_or((0, 0, 0), |d| d.moves());
        let mut t = [0; COUNTERS];
        t[MetricId::StashHitReal.index()] = s.stash_served - s.replaceable_stash_served;
        t[MetricId::StashHitReplaceable.index()] = s.replaceable_stash_served;
        t[MetricId::StashHitShadow.index()] = s.shadow_stash_served;
        t[MetricId::StaleDiscarded.index()] = s.stale_discarded;
        t[MetricId::TreetopServed.index()] = s.treetop_served;
        t[MetricId::DramServedReal.index()] = s.dram_served - s.shadow_advanced;
        t[MetricId::DramServedShadow.index()] = s.shadow_advanced;
        t[MetricId::FreshServed.index()] = s.fresh_served;
        t[MetricId::ShadowStashPull.index()] = self.shadow_pulls;
        t[MetricId::HotCacheHit.index()] = hot.hits;
        t[MetricId::HotCacheMiss.index()] = hot.misses;
        t[MetricId::HotCacheEvict.index()] = hot.evictions;
        t[MetricId::DriCounterUp.index()] = dri_up;
        t[MetricId::DriCounterDown.index()] = dri_down;
        t[MetricId::PartitionShift.index()] = shifts;
        t[MetricId::Evictions.index()] = s.evictions;
        t[MetricId::RdShadowWritten.index()] = s.rd_shadows_written;
        t[MetricId::HdShadowWritten.index()] = s.hd_shadows_written;
        t[MetricId::DummyBlockWritten.index()] = s.dummy_blocks_written;
        t[MetricId::RecirculatedShadow.index()] = s.recirculated_shadows;
        t[MetricId::PlbHit.index()] = plb.hits;
        t[MetricId::PlbMiss.index()] = plb.misses;
        t[MetricId::PlbEvict.index()] = plb.evictions;
        t
    }

    /// Ends an access half: sends the attached sink the non-zero counter
    /// deltas since the last report, then the half's samples, under one
    /// lock. Detached, it only clears the samples.
    fn report(&mut self) {
        let samples = std::mem::take(&mut self.samples);
        let Some(t) = &self.telemetry else { return };
        let totals = self.counter_totals();
        let mut sink = t.lock().expect("telemetry poisoned");
        for ((id, &now), before) in MetricId::ALL.iter().zip(&totals).zip(&mut self.reported) {
            if now != *before {
                sink.count(*id, now - *before);
                *before = now;
            }
        }
        for (id, value) in [
            (MetricId::PartitionLevel, samples.partition_level),
            (MetricId::ServedPosition, samples.served_position),
            (MetricId::RealPosition, samples.real_position),
            (MetricId::AdvanceDepth, samples.advance_depth),
            (MetricId::StashOccupancy, samples.stash_occupancy),
            (MetricId::DupQueueDepth, samples.dup_queue_depth),
        ] {
            if let Some(value) = value {
                sink.sample(id, value);
            }
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &OramConfig {
        &self.cfg
    }

    /// Tree geometry.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> OramStats {
        self.stats
    }

    /// Bucket-touch heatmap: off-chip bucket reads and writes per tree
    /// level (`levels + 1` entries each, index = level, root = 0). Every
    /// path read touches each off-chip level once and every eviction
    /// rewrites it, so the heatmap is flat below the treetop, whose
    /// levels read zero — they never reach the bus.
    pub fn level_touches(&self) -> (Vec<u64>, Vec<u64>) {
        let treetop = self.cfg.treetop_levels;
        let per_level =
            |n: u64| (0..=self.cfg.levels).map(|l| if l < treetop { 0 } else { n }).collect();
        let s = &self.stats;
        (per_level(s.ro_path_reads + s.evictions), per_level(s.evictions))
    }

    /// Stash statistics snapshot.
    pub fn stash_stats(&self) -> crate::stash::StashStats {
        self.stash.stats()
    }

    /// PLB statistics snapshot.
    pub fn plb_stats(&self) -> crate::posmap::PlbStats {
        self.posmap.plb_stats()
    }

    /// Posmap-ORAM phases queued by the most recent access's PLB-miss
    /// walk (always empty behind the page front). The engine costs these
    /// through the DRAM model before the access's data path read; they
    /// are cleared automatically at the next issue.
    pub fn posmap_pending(&self) -> &[PosmapPhase] {
        self.posmap.pending()
    }

    /// Modeled on-chip posmap state in bytes (terminal map + PLB +
    /// level-ORAM stashes behind the chain; the whole table behind
    /// the page front).
    pub fn posmap_onchip_bytes(&self) -> u64 {
        self.posmap.onchip_bytes()
    }

    /// Depth of the recursive posmap-ORAM chain (0 behind the page front).
    pub fn posmap_chain_levels(&self) -> u16 {
        self.posmap.chain_levels()
    }

    /// The current partitioning level, if a partitioned policy is active;
    /// a static level above the leaves reads as `L + 1` (every slot HD).
    pub fn partition_level(&self) -> Option<u32> {
        match self.cfg.dup_policy {
            DupPolicy::Static { partition_level } => Some(partition_level.min(self.cfg.levels + 1)),
            DupPolicy::Dynamic { .. } => self.dynamic.as_ref().map(|d| d.level()),
            DupPolicy::Off => None,
        }
    }

    /// Bulk-installs an initial memory image without generating ORAM
    /// traffic: each `(addr, value)` pair is mapped to a random leaf and
    /// placed in the deepest non-full bucket of its path (overflow goes to
    /// the stash). Mirrors a pre-initialized memory before measurement.
    ///
    /// # Panics
    ///
    /// Panics if the working set does not fit (more blocks than tree
    /// slots + stash) — a configuration error in the experiment.
    pub fn prefill<I: IntoIterator<Item = (BlockAddr, u64)>>(&mut self, blocks: I) {
        for (addr, value) in blocks {
            let entry = self.posmap.lookup_or_assign(addr, &mut self.rng);
            let label = entry.label;
            let blk = Block::real(addr, label, value, entry.version);
            let mut placed = false;
            // Deepest-first placement fills leaf buckets first: at L = 12
            // and 35 % fill ~92 % of blocks land in leaves, where a long
            // run of evictions keeps ~56 % and spreads the rest over the
            // levels just above. Measurements start from this packed tree,
            // not from the steady state.
            for level in (0..=self.shape.levels()).rev() {
                let bid = self.shape.bucket_on_path(label, level);
                if self.tree.place(bid, blk).is_some() {
                    self.posmap.set_site(addr, RealCopySite::Tree { level });
                    placed = true;
                    break;
                }
            }
            if !placed {
                match self.stash.insert(blk) {
                    crate::stash::InsertOutcome::Overflow => {
                        panic!("prefill working set exceeds ORAM capacity")
                    }
                    _ => self.posmap.set_site(addr, RealCopySite::Stash),
                }
            }
            // Prefill models a pre-initialized image: posmap walks the
            // lookups triggered are warmup, never costed.
            self.posmap.clear_pending();
        }
        // Nor reported: its PLB traffic is not part of any access.
        self.reported = self.counter_totals();
    }

    /// Returns `true` if a request for `addr` would be served by the
    /// stash right now (a current-version resident copy exists). Lets the
    /// timing simulator serve on-chip hits without waiting for the memory
    /// pipeline — the stash CAM is a separate resource.
    pub fn stash_would_serve(&self, addr: BlockAddr) -> bool {
        self.stash.serving(addr).is_some_and(|e| self.posmap.is_current(addr, e.block.version))
    }

    /// Processes one CPU request (Steps 1–6 of Sec. II-C).
    pub fn access(&mut self, req: Request) -> AccessResult {
        let (mut result, ticket) = self.access_issue(req);
        if let Some((er, ew)) = self.access_complete(ticket) {
            result.phases.push(er);
            result.phases.push(ew);
        }
        result
    }

    /// The issue half of [`OramController::access`] (Steps 1–3): stash
    /// query, position-map lookup and the read-only path read. Returns a
    /// result whose phase list holds at most the `ReadOnly` phase, plus a
    /// ticket for [`OramController::access_complete`].
    ///
    /// The split exists for the pipelined timing model: the completion
    /// half (the eviction, when due) can overlap the *next* access's path
    /// read in time, while the protocol state itself still mutates in
    /// strict issue order. Every open ticket must be completed before the
    /// next issue; [`OramController::access`] is exactly
    /// `access_issue` + `access_complete` and stays bit-identical.
    pub fn access_issue(&mut self, req: Request) -> (AccessResult, AccessTicket) {
        // Posmap phases queued by the previous access were costed by the
        // engine after that access; start this one with a clean queue.
        self.posmap.clear_pending();
        self.stats.real_requests += 1;
        // The stash caches its shadows' counters for recirculation: drop
        // the ones that changed (without duplication there are no shadows).
        let evicted = self.hot.observe(req.addr);
        if self.cfg.dup_policy.is_enabled() {
            self.stash.forget_priority(req.addr);
            if let Some(victim) = evicted {
                self.stash.forget_priority(victim);
            }
        }
        self.note_request_for_dynamic(true);

        // Step-1: stash query.
        if let Some(entry) = self.stash.lookup(req.addr) {
            if self.posmap.is_current(req.addr, entry.block.version) {
                let hit_shadow = entry.block.is_shadow();
                self.stats.shadow_stash_served += u64::from(hit_shadow);
                let value = self.serve_stash_hit(req, entry.replaceable);
                let result = AccessResult {
                    served: ServedFrom::Stash,
                    value,
                    stash_hit_shadow: hit_shadow,
                    phases: PhaseList::new(),
                };
                self.report();
                // Stash hits never reach the bus: nothing to complete.
                return (result, AccessTicket { open: false, eviction_due: false });
            }
            // Stale resident copy: drop it and fall through to a full access.
            self.stash.remove(req.addr);
            self.stats.stale_discarded += 1;
        }

        self.emit(BusEvent::AccessStart);

        // Step-2: position map lookup (assigning a label on first touch).
        // Behind the chain a PLB miss walks the posmap-ORAM levels
        // here, queueing costed phases the engine drains after this
        // access.
        let leaf = self.posmap.lookup_or_assign(req.addr, &mut self.rng).label;
        // The walk's bucket touches, in the order it made them.
        for p in self.posmap.pending() {
            let write = p.phase.kind == PhaseKind::EvictionWrite;
            self.bus.extend(p.phase.buckets().map(|bid| BusEvent::PosmapBucket {
                bucket: bid.raw(),
                level: p.level,
                write,
            }));
        }

        // Step-3: read-only path read.
        let (ro, served, value) = self.read_only_access(leaf, Some(req));
        let mut phases = PhaseList::new();
        phases.push(ro);

        // The eviction cadence advances at issue time, so back-to-back
        // issues see the same schedule whether or not completions overlap.
        let eviction_due = self.eviction_cadence();

        self.bus.flush();
        self.report();
        let result = AccessResult { served, value, stash_hit_shadow: false, phases };
        (result, AccessTicket { open: true, eviction_due })
    }

    /// The completion half of [`OramController::access`] (Steps 4–6): runs
    /// the eviction when the cadence fired at issue time and closes the
    /// access frame on the bus. Returns the eviction read/write phase pair,
    /// or `None` when no eviction was due (stash-hit tickets are inert and
    /// complete to `None` immediately).
    pub fn access_complete(&mut self, ticket: AccessTicket) -> Option<(PathPhase, PathPhase)> {
        if !ticket.open {
            return None;
        }
        let evicted = if ticket.eviction_due { Some(self.evict()) } else { None };
        self.emit(BusEvent::AccessEnd);
        self.bus.flush();
        self.report();
        evicted
    }

    /// Processes one dummy request (timing protection): a read-only path
    /// read of a uniformly random path, indistinguishable from a real
    /// request, participating in the eviction schedule.
    pub fn dummy_access(&mut self) -> AccessResult {
        // Dummies never consult the position map, but the previous
        // access's costed posmap phases are done with.
        self.posmap.clear_pending();
        self.stats.dummy_requests += 1;
        self.note_request_for_dynamic(false);
        self.emit(BusEvent::AccessStart);

        let leaf = LeafLabel::new(self.rng.below(self.shape.leaf_count()));
        let (ro, _, _) = self.read_only_access(leaf, None);
        let mut phases = PhaseList::new();
        phases.push(ro);

        if self.eviction_cadence() {
            let (er, ew) = self.evict();
            phases.push(er);
            phases.push(ew);
        }

        self.emit(BusEvent::AccessEnd);
        self.bus.flush();
        self.report();
        AccessResult { served: ServedFrom::Stash, value: 0, stash_hit_shadow: false, phases }
    }

    /// Counts one path read (real or dummy) towards the eviction
    /// cadence: `true` on every `A − 1`-th, whose access must evict.
    fn eviction_cadence(&mut self) -> bool {
        self.ro_since_eviction += 1;
        let due = self.ro_since_eviction >= self.cfg.eviction_rate - 1;
        if due {
            self.ro_since_eviction = 0;
        }
        due
    }

    fn note_request_for_dynamic(&mut self, is_real: bool) {
        if let Some(d) = self.dynamic.as_mut() {
            if d.on_request(is_real) {
                self.samples.partition_level = Some(u64::from(d.level()));
            }
        }
    }

    /// Feeds the dynamic partitioner a synthetic "long gap" observation.
    ///
    /// With timing protection, long data-request intervals manifest as
    /// dummy requests, which [`OramController::dummy_access`] reports
    /// automatically. Without protection no dummies exist, so the system
    /// simulator calls this when it observes an idle interval long enough
    /// that a dummy *would* have been injected — keeping the DRI counter
    /// meaningful in both modes (Sec. IV-D2).
    pub fn record_long_gap(&mut self) {
        self.note_request_for_dynamic(false);
        self.report();
    }

    /// Serves a request that hit the stash; handles write promotion.
    fn serve_stash_hit(&mut self, req: Request, was_replaceable: bool) -> u64 {
        self.stats.stash_served += 1;
        self.stats.replaceable_stash_served += u64::from(was_replaceable);
        match req.op {
            Op::Read => self.stash.peek(req.addr).expect("hit entry present").block.data,
            Op::Write => {
                // Promote to a live real block with a bumped version; any
                // copies left in the tree become stale.
                let v = self.posmap.bump_version(req.addr);
                self.stash.write(req.addr, req.data, v);
                self.posmap.set_site(req.addr, RealCopySite::Stash);
                req.data
            }
        }
    }

    /// Performs the read-only path read of `leaf`. When `req` is a real
    /// request, the requested block is forwarded, remapped, and promoted
    /// live; all other current blocks enter the stash as replaceable cache
    /// copies (their tree copies remain authoritative).
    fn read_only_access(
        &mut self,
        leaf: LeafLabel,
        req: Option<Request>,
    ) -> (PathPhase, ServedFrom, u64) {
        self.stats.ro_path_reads += 1;
        let z = self.cfg.z;
        let treetop = self.cfg.treetop_levels;
        let mut path = std::mem::take(&mut self.path_buf);
        self.shape.path_into(leaf, &mut path);

        let mut served: Option<ServedFrom> = None;
        let mut value = 0u64;
        // Flat index of the requested block's current real copy (0 on chip).
        let mut real_ix: Option<usize> = None;
        let mut dram_index = 0usize;
        // Count DRAM blocks for this read up front (levels outside the
        // treetop), so early-exit bookkeeping can't skew it.
        let dram_levels = path.len() - (treetop as usize).min(path.len());
        let blocks_in_path = dram_levels * z;

        self.emit(BusEvent::PhaseStart(BusPhase::ReadOnly));
        for (level, &bid) in path.iter().enumerate() {
            let on_chip = (level as u32) < treetop;
            if !on_chip {
                self.emit(BusEvent::Bucket { bucket: bid.raw(), write: false });
            }
            // The bus has seen the bucket read; a vacant bucket has
            // nothing to decode, and its memory stays untouched.
            let Some(slots) = self.tree.slots(bid) else {
                if !on_chip {
                    dram_index += z;
                }
                continue;
            };
            for blk in slots {
                let flat = if on_chip { None } else { Some(dram_index) };
                if !on_chip {
                    dram_index += 1;
                }
                if blk.is_dummy() {
                    continue;
                }
                // Stale-copy invalidation: every remap is a new version.
                let Some(site) = self.current_site(&blk) else {
                    self.stats.stale_discarded += 1;
                    continue;
                };
                // Algorithm 2 inserts "real or shadow" blocks. Tiny ORAM's
                // read-only phase writes nothing back, so non-requested
                // *real* blocks stay authoritative in the tree and are not
                // moved (RAW ORAM semantics — pulling whole paths live
                // would grow the stash without bound). Shadow blocks *are*
                // inserted, always replaceable (Rule-3): resident shadows
                // are both HD-Dup's on-chip cache of hot data and the
                // recirculation supply that re-propagates shadows at the
                // next eviction. The requested block itself is promoted to
                // a live resident (and remapped) after the loop.
                let requested = req.is_some_and(|r| r.addr == blk.addr);
                if blk.is_shadow() {
                    self.shadow_pulls += 1;
                    if let Some(real_level) = self.carried_level(site, level as u32) {
                        self.stash.insert_shadow(blk, real_level);
                    }
                } else if requested {
                    self.stash.insert(blk);
                }
                // Forward the requested data on its first current copy, and
                // note where its one current real copy sits.
                if requested {
                    if blk.is_real() {
                        real_ix = Some(flat.unwrap_or(0));
                    }
                    if served.is_none() {
                        value = blk.data;
                        served = Some(match flat {
                            None => ServedFrom::Treetop,
                            Some(ix) => ServedFrom::Dram {
                                block_index: ix,
                                blocks_in_path,
                                via_shadow: blk.is_shadow(),
                            },
                        });
                    }
                }
            }
        }

        self.emit(BusEvent::PhaseEnd(BusPhase::ReadOnly));
        let phase = PathPhase::new(PhaseKind::ReadOnly, leaf, self.shape, treetop);

        // Post-processing for a real request: apply the op, remap, promote.
        let served = if let Some(r) = req {
            let served = served.unwrap_or(ServedFrom::Fresh { blocks_in_path });
            match served {
                ServedFrom::Treetop => self.stats.treetop_served += 1,
                ServedFrom::Dram { block_index, via_shadow, .. } => {
                    let served_ix = block_index as u64;
                    self.stats.dram_served += 1;
                    self.stats.served_position_sum += served_ix;
                    self.samples.served_position = Some(served_ix);
                    if via_shadow {
                        self.stats.shadow_advanced += 1;
                        if let Some(real_ix) = real_ix.map(|ix| ix as u64) {
                            self.stats.real_position_sum += real_ix;
                            self.samples.real_position = Some(real_ix);
                            self.samples.advance_depth = Some(real_ix.saturating_sub(served_ix));
                        }
                    }
                }
                ServedFrom::Fresh { .. } => self.stats.fresh_served += 1,
                ServedFrom::Stash => {}
            }

            // A write returns what it wrote, as one that hits the stash
            // does, not the contents the path read forwarded.
            if r.op == Op::Write {
                value = r.data;
            }
            // Remap under a new version, which strands every copy left in
            // the tree, and make the accessed block live in the stash: the
            // new version supersedes any resident copy, and a fresh address
            // materializes here.
            let new_label = self.fresh_label();
            let version = self.remap(r, new_label);
            let outcome = self.stash.insert(Block::real(r.addr, new_label, value, version));
            assert!(
                !matches!(outcome, crate::stash::InsertOutcome::Overflow),
                "stash overflow inserting the accessed block: the \
                 security parameter (stash capacity) is too small"
            );
            self.posmap.set_site(r.addr, RealCopySite::Stash);
            served
        } else {
            ServedFrom::Stash
        };

        self.path_buf = path;
        (phase, served, value)
    }

    /// Where the real copy of `blk`'s address sits, if `blk` is current:
    /// the one posmap probe a path read makes per block.
    #[inline]
    fn current_site(&self, blk: &Block) -> Option<RealCopySite> {
        self.posmap.peek(blk.addr).filter(|pe| pe.version == blk.version).map(|pe| pe.site)
    }

    /// The level a current shadow read from `bucket_level` carries into
    /// the stash: its real copy's, at `site`. `None` when the real copy is
    /// not in the tree: it is live in the stash, where the shadow would
    /// merge into it and be discarded, so the shadow is not offered.
    #[inline]
    fn carried_level(&self, site: RealCopySite, bucket_level: u32) -> Option<u32> {
        let RealCopySite::Tree { level } = site else { return None };
        #[cfg(feature = "mutants")]
        if self.mutant == Mutant::StaleShadowLevel {
            return Some(bucket_level);
        }
        let _ = bucket_level;
        Some(level)
    }

    /// Whether the injected mutant suppresses the rewrite (and therefore
    /// the bus write) of the path slot at `level_idx`. Always `false`
    /// without the `mutants` feature.
    #[inline]
    fn skip_rewrite(&self, level_idx: usize, path_len: usize) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.mutant == Mutant::SkipLeafRewrite && level_idx + 1 == path_len
        }
        #[cfg(not(feature = "mutants"))]
        {
            let _ = (level_idx, path_len);
            false
        }
    }

    /// Draws the uniform random leaf a remapped block moves to.
    #[inline]
    fn fresh_label(&mut self) -> LeafLabel {
        #[cfg(feature = "mutants")]
        if self.mutant == Mutant::BiasedRemap {
            return LeafLabel::new(self.rng.below(self.shape.leaf_count()) / 2);
        }
        LeafLabel::new(self.rng.below(self.shape.leaf_count()))
    }

    /// Remaps the accessed block to `label` and returns its new version.
    fn remap(&mut self, r: Request, label: LeafLabel) -> Version {
        #[cfg(feature = "mutants")]
        if self.mutant == Mutant::ReadRemapKeepsVersion && r.op == Op::Read {
            return self.posmap.remap_keeping_version(r.addr, label);
        }
        self.posmap.remap_to(r.addr, label)
    }

    /// One eviction: read the next reverse-lexicographic path into the
    /// stash (live), then rewrite it greedily from the stash, filling
    /// leftover dummy slots with shadow blocks per the duplication policy
    /// (Algorithm 1).
    fn evict(&mut self) -> (PathPhase, PathPhase) {
        self.stats.evictions += 1;
        self.samples.stash_occupancy = Some(self.stash.live() as u64);
        let leaf = self.eviction_order.next_leaf();
        let treetop = self.cfg.treetop_levels;
        let mut path = std::mem::take(&mut self.path_buf);
        self.shape.path_into(leaf, &mut path);

        // ---- Read half: pull every current block on the path live. ----
        self.emit(BusEvent::PhaseStart(BusPhase::EvictionRead));
        for (level, &bid) in path.iter().enumerate() {
            if (level as u32) >= treetop {
                self.emit(BusEvent::Bucket { bucket: bid.raw(), write: false });
            }
            let Some(slots) = self.tree.slots(bid) else { continue };
            for blk in slots {
                if blk.is_dummy() {
                    continue;
                }
                let Some(site) = self.current_site(&blk) else {
                    self.stats.stale_discarded += 1;
                    continue;
                };
                if blk.is_real() {
                    let outcome = self.stash.insert(blk);
                    assert!(
                        !matches!(outcome, crate::stash::InsertOutcome::Overflow),
                        "stash overflow during eviction read: the security \
                         parameter (stash capacity) is too small for this run"
                    );
                    // The tree copy is about to be destroyed by the write
                    // half: the stash copy must be live.
                    self.stash.ensure_live(blk.addr);
                    self.posmap.set_site(blk.addr, RealCopySite::Stash);
                } else {
                    self.shadow_pulls += 1;
                    if let Some(real_level) = self.carried_level(site, level as u32) {
                        self.stash.insert_shadow(blk, real_level);
                    }
                }
            }
        }
        self.emit(BusEvent::PhaseEnd(BusPhase::EvictionRead));

        // ---- Write half: Algorithm 1, leaf to root. ----
        let policy = self.cfg.dup_policy;
        let partition_level = self.partition_level().unwrap_or(0);
        // HD-Dup fills the levels root-ward of the partition, so level 0
        // tells whether this path write reads counters at all.
        let hd_in_play = scheme_for_slot(policy, partition_level, 0) == SlotScheme::Hd;
        if policy.is_enabled() {
            self.dup_queues.begin(leaf, self.cfg.chain_duplication, partition_level);
        }
        // Stash-resident shadows are also duplication candidates (Sec.
        // V-B2) — this recirculation is what lets a block's shadow outlive
        // the rewriting of its bucket. Each is current and carries the
        // level of its real copy, which sits in the tree
        // (`check_invariants`).
        if policy.is_enabled() && self.cfg.recirculate_stash_shadows {
            let hot = hd_in_play.then_some(&self.hot);
            for (block, level, priority) in self.stash.recirculation_supply(hot) {
                self.dup_queues.push(DupCandidate::from_block(&block, level, true), priority);
            }
        }
        let offered = if policy.is_enabled() { self.dup_queues.len() as u64 } else { 0 };
        self.stats.stash_shadow_candidates += offered;
        // Recirculation supply available to this eviction's write half.
        self.samples.dup_queue_depth = Some(offered);

        // The slot-filling loop below runs leaf-first (Algorithm 1), but
        // the bus issues the rewritten path root-side first to match the
        // read pipeline — exactly the bucket order `PathPhase` derives —
        // so the observer sees the phase in issue order here.
        self.emit(BusEvent::PhaseStart(BusPhase::EvictionWrite));
        for (level_idx, &bid) in path.iter().enumerate() {
            if (level_idx as u32) < treetop || self.skip_rewrite(level_idx, path.len()) {
                continue;
            }
            self.emit(BusEvent::Bucket { bucket: bid.raw(), write: true });
        }
        self.emit(BusEvent::PhaseEnd(BusPhase::EvictionWrite));

        // stash_blk_select, for the whole path at once: the live blocks
        // in the order the slots below take them.
        self.stash.plan_eviction(&self.shape, leaf);
        #[cfg(feature = "mutants")]
        if self.mutant == Mutant::DropOnDrain {
            self.stash.pop_planned(0);
        }
        let mut bucket = std::mem::take(&mut self.bucket_buf);
        for (level_idx, &bid) in path.iter().enumerate().rev() {
            if self.skip_rewrite(level_idx, path.len()) {
                continue;
            }
            let level = level_idx as u32;
            let scheme = scheme_for_slot(policy, partition_level, level);
            for slot in bucket.iter_mut() {
                *slot = if let Some(blk) = self.stash.pop_planned(level) {
                    self.posmap.set_site(blk.addr, RealCopySite::Tree { level });
                    self.stats.real_blocks_written += 1;
                    // Freshly written blocks become duplication candidates
                    // for shallower (later-written) slots.
                    if policy.is_enabled() {
                        let priority = if hd_in_play { self.hot.priority(blk.addr) } else { 0 };
                        self.dup_queues
                            .push(DupCandidate::from_block(&blk, level, false), priority);
                    }
                    blk
                } else {
                    // dup_blk_select: fill the dummy with a shadow copy.
                    let pick =
                        if policy.is_enabled() { self.dup_queues.select(level) } else { None };
                    match pick {
                        Some(c) => {
                            if scheme == SlotScheme::Rd {
                                self.stats.rd_shadows_written += 1;
                            } else {
                                self.stats.hd_shadows_written += 1;
                            }
                            self.stats.recirculated_shadows += u64::from(c.recirculated);
                            c.to_shadow_block()
                        }
                        None => {
                            self.stats.dummy_blocks_written += 1;
                            Block::DUMMY
                        }
                    }
                };
            }
            self.tree.write_bucket(bid, &bucket);
        }
        self.path_buf = path;
        self.bucket_buf = bucket;

        // The write loop above fills leaf-first, but the DRAM write order
        // is the controller's choice: the phase describes it root-side
        // first to match the read pipeline, which is exactly the derived
        // bucket order of `PathPhase`.
        (
            PathPhase::new(PhaseKind::EvictionRead, leaf, self.shape, treetop),
            PathPhase::new(PhaseKind::EvictionWrite, leaf, self.shape, treetop),
        )
    }

    /// Checks the protocol's state, where a copy is current iff its
    /// version is the position map's:
    ///
    /// * (i) every address the posmap has sited has **exactly one**
    ///   current real copy, at its [`RealCopySite`]: live in the stash, or
    ///   in a bucket on its label's path; an unsited address has none;
    /// * (ii) the state half of the Shadow Rules: every current copy sits
    ///   on its label's path, a current shadow carries its real copy's
    ///   data, no copy is newer than the map, and no shadow is live in the
    ///   stash (shadows never count against its capacity);
    /// * (iii) every stash shadow is current, and the level it carries is
    ///   its real copy's tree level — what recirculation offers it under;
    ///
    /// and that the tree store flags a bucket occupied iff it holds a
    /// block ([`OramTree::check_occupancy`]), that the stash's live count
    /// matches its entries and its cached shadow counters the Hot Address
    /// Cache's ([`Stash::check_priorities`]), and the same of every ORAM
    /// of a recursive position map. Stale copies in the tree are permitted
    /// garbage. O(tree); test/diagnostic use only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_occupancy()?;
        self.posmap.check_invariants()?;
        self.stash.check_live_count()?;
        self.stash.check_priorities(&self.hot)?;
        // The posmap entry of a copy (in bucket `raw`, or in the stash)
        // that is current; `None` for a stale one; an error for a copy the
        // posmap does not know or one newer than it.
        let current = |b: &Block, raw: Option<u64>| match self.posmap.peek(b.addr) {
            Some(pe) if b.version <= pe.version => Ok((pe.version == b.version).then_some(pe)),
            pe => {
                let at = raw.map_or("in the stash".into(), |raw| format!("at bucket {raw}"));
                let (addr, kind, v, map) = (b.addr, b.kind, b.version, pe.map(|pe| pe.version));
                Err(format!("{addr} ({kind}) {at} has version {v}; posmap {map:?}"))
            }
        };
        // Every current copy, with where it sits.
        let mut copies = Vec::new();
        for raw in 1..=self.shape.bucket_count() {
            let bid = BucketId::new(raw);
            let level = bid.level();
            for blk in self.tree.slots(bid).into_iter().flatten().filter(|b| !b.is_dummy()) {
                let Some(pe) = current(&blk, Some(raw))? else { continue };
                if self.shape.bucket_on_path(pe.label, level) != bid || blk.label != pe.label {
                    return Err(format!(
                        "{} ({} labelled {}) at bucket {raw} level {level} is off the path to {}",
                        blk.addr, blk.kind, blk.label, pe.label
                    ));
                }
                // Rule-2 (root-ward of the real copy) holds at creation
                // (`DupCandidate::eligible_at`); a later eviction may re-place
                // the real copy root-ward of an old shadow, which is harmless.
                copies.push((blk, RealCopySite::Tree { level }));
            }
        }
        for (e, level) in self.stash.shadow_entries() {
            let (addr, v) = (e.block.addr, e.block.version);
            match self.posmap.peek(addr) {
                Some(pe) if pe.version == v && pe.site == RealCopySite::Tree { level } => {}
                pe => {
                    let (map, site) = (pe.map(|pe| pe.version), pe.map(|pe| pe.site));
                    return Err(format!(
                        "stash shadow of {addr} (version {v}) carries level {level}; posmap \
                         version {map:?} site {site:?}"
                    ));
                }
            }
        }
        for e in self.stash.entries() {
            let blk = e.block;
            if blk.is_shadow() && !e.replaceable {
                return Err(format!("shadow of {} is live in the stash", blk.addr));
            }
            // An evicted real entry is a freed slot, not a copy.
            if current(&blk, None)?.is_some() && !(e.replaceable && blk.is_real()) {
                copies.push((blk, RealCopySite::Stash));
            }
        }
        // Per address: its current real copies, where the first sits, its data.
        let mut reals = std::collections::HashMap::new();
        for &(b, at) in copies.iter().filter(|(b, _)| b.is_real()) {
            reals.entry(b.addr).or_insert((0, at, b.data)).0 += 1;
        }
        for (s, _) in copies.iter().filter(|(b, _)| b.is_shadow()) {
            if reals.get(&s.addr).is_none_or(|r| r.2 != s.data) {
                return Err(format!("current shadow of {} differs from its real copy", s.addr));
            }
        }
        for (addr, pe) in self.posmap.entries() {
            let (n, at, _) = reals.get(&addr).copied().unwrap_or((0, RealCopySite::Unmapped, 0));
            if n != u32::from(pe.site != RealCopySite::Unmapped) || at != pe.site {
                return Err(format!("{addr} sited at {:?} has {n} current real copies", pe.site));
            }
        }
        Ok(())
    }

    /// Immutable view of the tree (diagnostics / tests).
    pub fn tree(&self) -> &OramTree {
        &self.tree
    }

    /// Immutable view of the stash (diagnostics / tests).
    pub fn stash(&self) -> &Stash {
        &self.stash
    }

    /// Immutable view of the Hot Address Cache (diagnostics / tests).
    pub fn hot_cache(&self) -> &HotAddressCache {
        &self.hot
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::shadow::DupPolicy;

    fn controller(policy: DupPolicy) -> OramController {
        OramController::new(OramConfig::small_test().with_dup_policy(policy)).unwrap()
    }

    /// Attaches a bus observer that collects every event from here on.
    fn observe(ctl: &mut OramController) -> Arc<Mutex<Vec<BusEvent>>> {
        let events = Arc::new(Mutex::new(Vec::new()));
        ctl.set_observer(Some(events.clone() as SharedObserver));
        events
    }

    #[test]
    fn level_touches_cover_offchip_levels_only() {
        let mut ctl = controller(DupPolicy::RdOnly);
        run_workload(&mut ctl, 200);
        let treetop = ctl.config().treetop_levels as usize;
        let (reads, writes) = ctl.level_touches();
        assert_eq!(reads.len(), ctl.config().levels as usize + 1);
        assert_eq!(writes.len(), reads.len());
        assert!(reads[..treetop].iter().all(|&n| n == 0), "treetop never reaches the bus");
        assert!(writes[..treetop].iter().all(|&n| n == 0));
        assert!(reads[treetop..].iter().all(|&n| n > 0), "every off-chip level read");
        assert!(writes[treetop..].iter().all(|&n| n > 0), "evictions rewrite every level");
        // Stash hits add no touches: reads per level equals path reads.
        let path_reads = ctl.stats().ro_path_reads + ctl.stats().evictions;
        assert!(reads[treetop..].iter().all(|&n| n == path_reads));
    }

    fn run_workload(ctl: &mut OramController, n: u64) {
        // Interleaved writes and reads over a modest working set.
        for i in 0..n {
            let addr = BlockAddr::new(i % 37);
            if i % 3 == 0 {
                ctl.access(Request::write(addr, i));
            } else {
                ctl.access(Request::read(addr));
            }
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ctl = controller(DupPolicy::Off);
        ctl.access(Request::write(BlockAddr::new(9), 77));
        let r = ctl.access(Request::read(BlockAddr::new(9)));
        assert_eq!(r.value, 77);
    }

    #[test]
    fn fresh_read_returns_zero() {
        let mut ctl = controller(DupPolicy::Off);
        let r = ctl.access(Request::read(BlockAddr::new(1000)));
        assert_eq!(r.value, 0);
        assert!(matches!(r.served, ServedFrom::Fresh { .. }));
    }

    #[test]
    fn consistency_against_reference_model_all_policies() {
        for policy in [
            DupPolicy::Off,
            DupPolicy::RdOnly,
            DupPolicy::HdOnly,
            DupPolicy::Static { partition_level: 3 },
            DupPolicy::Dynamic { counter_bits: 3 },
        ] {
            let mut ctl = controller(policy);
            let mut reference = std::collections::HashMap::new();
            let mut x = 0x9E3779B97F4A7C15u64;
            for step in 0..3000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = BlockAddr::new(x % 61);
                if x % 5 < 2 {
                    ctl.access(Request::write(addr, step));
                    reference.insert(addr, step);
                } else {
                    let r = ctl.access(Request::read(addr));
                    let expect = reference.get(&addr).copied().unwrap_or(0);
                    assert_eq!(r.value, expect, "policy {policy:?} step {step} addr {addr}");
                }
                if step % 500 == 0 {
                    ctl.check_invariants().expect("invariants hold");
                }
            }
            ctl.check_invariants().expect("final invariants");
        }
    }

    #[test]
    fn every_serve_path_returns_the_written_value() {
        // Treetop + RD-Dup so that all four serve paths occur; the
        // working set is prefilled so writes find old contents to
        // (wrongly) return.
        let cfg = OramConfig::small_test().with_dup_policy(DupPolicy::RdOnly).with_treetop(3);
        let mut ctl = OramController::new(cfg).unwrap();
        let mut reference: std::collections::HashMap<BlockAddr, u64> =
            (0..150u64).map(|a| (BlockAddr::new(a), a + 1000)).collect();
        ctl.prefill(reference.iter().map(|(&a, &v)| (a, v)));
        let mut seen = std::collections::HashSet::new();
        let mut rng = Rng64::seed_from_u64(7);
        for step in 0..6000u64 {
            // Mostly the prefilled set, sometimes a never-seen address.
            let fresh = rng.gen_bool(0.02);
            let addr = BlockAddr::new(if fresh { 10_000 + step } else { rng.below(150) });
            let write = rng.gen_bool(0.5);
            let (r, expect) = if write {
                reference.insert(addr, step);
                (ctl.access(Request::write(addr, step)), step)
            } else {
                (ctl.access(Request::read(addr)), reference.get(&addr).copied().unwrap_or(0))
            };
            assert_eq!(r.value, expect, "step {step} write={write} served {:?}", r.served);
            seen.insert((std::mem::discriminant(&r.served), write));
        }
        assert_eq!(seen.len(), 8, "stash, treetop, DRAM and fresh, each read and written");
    }

    #[test]
    fn evictions_fire_every_a_minus_one_accesses() {
        let mut ctl = controller(DupPolicy::Off);
        let a = ctl.config().eviction_rate;
        run_workload(&mut ctl, 100);
        let s = ctl.stats();
        // Only path-reading accesses advance the schedule.
        let expected = s.ro_path_reads / (a as u64 - 1);
        assert_eq!(s.evictions, expected);
    }

    #[test]
    fn shadow_blocks_appear_with_duplication_enabled() {
        let mut ctl = controller(DupPolicy::RdOnly);
        run_workload(&mut ctl, 400);
        assert!(ctl.stats().rd_shadows_written > 0, "RD-Dup wrote shadows");
        assert!(ctl.tree().shadow_block_count() > 0);
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn baseline_never_writes_shadows() {
        let mut ctl = controller(DupPolicy::Off);
        run_workload(&mut ctl, 400);
        assert_eq!(ctl.stats().rd_shadows_written, 0);
        assert_eq!(ctl.stats().hd_shadows_written, 0);
        assert_eq!(ctl.tree().shadow_block_count(), 0);
    }

    #[test]
    fn rd_dup_advances_served_positions() {
        let mut base = controller(DupPolicy::Off);
        let mut rd = controller(DupPolicy::RdOnly);
        // Cyclic reads over a set large enough to miss the stash.
        for i in 0..4000u64 {
            let addr = BlockAddr::new(i % 97);
            base.access(Request::read(addr));
            rd.access(Request::read(addr));
        }
        assert!(rd.stats().shadow_advanced > 0, "some accesses were advanced");
        assert!(
            rd.stats().mean_served_position() < base.stats().mean_served_position(),
            "RD-Dup should reduce the mean serving position: {} vs {}",
            rd.stats().mean_served_position(),
            base.stats().mean_served_position()
        );
    }

    #[test]
    fn hd_dup_increases_stash_hits_on_hot_data() {
        let mut base = controller(DupPolicy::Off);
        let mut hd = controller(DupPolicy::HdOnly);
        // 60% of accesses hit a 24-address hot set whose recurrence
        // interval (~40 accesses) outlives the stash's natural caching
        // window but fits the lifetime of root-ward shadow copies; the
        // rest is a cold stream. Total working set stays below half the
        // tree.
        let mut x = 1234567u64;
        for i in 0..6000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr =
                if x % 10 < 6 { BlockAddr::new(x % 24) } else { BlockAddr::new(1000 + (i % 120)) };
            base.access(Request::read(addr));
            hd.access(Request::read(addr));
        }
        // The mechanism: shadow-kind stash hits exist only under HD-Dup.
        assert!(
            hd.stats().shadow_stash_served > 0,
            "HD-Dup should serve some requests from shadow stash entries"
        );
        assert_eq!(base.stats().shadow_stash_served, 0);
        assert!(hd.stats().hd_shadows_written > 0);
        // And it must not meaningfully hurt overall on-chip hits at this
        // toy scale (the quantitative gain is a system-level experiment,
        // reproduced as Fig. 16 by the bench harness).
        assert!(
            hd.stats().stash_served as f64 >= base.stats().stash_served as f64 * 0.9,
            "HD-Dup regressed stash hits: {} vs {}",
            hd.stats().stash_served,
            base.stats().stash_served
        );
    }

    #[test]
    fn dummy_accesses_produce_phases_but_serve_nothing() {
        let mut ctl = controller(DupPolicy::Off);
        let r = ctl.dummy_access();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].kind, PhaseKind::ReadOnly);
        assert_eq!(ctl.stats().dummy_requests, 1);
        assert_eq!(ctl.stats().real_requests, 0);
    }

    #[test]
    fn treetop_serves_top_levels_on_chip() {
        let run = |treetop: u32| {
            let cfg =
                OramConfig::small_test().with_dup_policy(DupPolicy::RdOnly).with_treetop(treetop);
            let mut ctl = OramController::new(cfg).unwrap();
            for i in 0..4000u64 {
                ctl.access(Request::read(BlockAddr::new(i % 150)));
            }
            ctl
        };
        let with_tt = run(3);
        let without_tt = run(0);
        // Treetop levels are excluded from DRAM phases, so the mean DRAM
        // serving position drops when the shadow-rich top levels are held
        // on chip.
        assert!(
            with_tt.stats().mean_served_position() < without_tt.stats().mean_served_position(),
            "treetop should shave root-side DRAM blocks: {} vs {}",
            with_tt.stats().mean_served_position(),
            without_tt.stats().mean_served_position()
        );
        assert!(with_tt.stats().on_chip_hit_rate() > 0.2, "on-chip hits exist");
        // DRAM phases exclude treetop buckets.
        let mut ctl = with_tt;
        let r = ctl.access(Request::read(BlockAddr::new(5000)));
        for p in &r.phases {
            for b in p.buckets() {
                assert!(b.level() >= 3, "treetop bucket leaked into DRAM phase");
            }
        }
    }

    #[test]
    fn prefill_places_blocks_and_preserves_invariants() {
        let mut ctl = controller(DupPolicy::Off);
        ctl.prefill((0..200u64).map(|i| (BlockAddr::new(i), i * 7)));
        ctl.check_invariants().unwrap();
        for i in (0..200u64).step_by(17) {
            let r = ctl.access(Request::read(BlockAddr::new(i)));
            assert_eq!(r.value, i * 7);
        }
    }

    #[test]
    fn trace_records_bus_events_when_enabled() {
        let mut ctl = controller(DupPolicy::Off);
        let events = observe(&mut ctl);
        ctl.access(Request::read(BlockAddr::new(1)));
        let events = events.lock().unwrap();
        let buckets = events.iter().filter(|e| matches!(e, BusEvent::Bucket { .. })).count();
        // A read-only access touches exactly L+1 buckets.
        assert_eq!(buckets, ctl.shape().levels() as usize + 1);
    }

    #[test]
    fn stats_positions_are_consistent() {
        let mut ctl = controller(DupPolicy::RdOnly);
        run_workload(&mut ctl, 2000);
        let s = ctl.stats();
        let max_pos = (ctl.shape().blocks_per_path() - 1) as f64;
        let mean = s.mean_served_position();
        assert!((0.0..=max_pos).contains(&mean), "mean {mean} out of range");
    }

    /// A read served by a shadow measures its advance against the
    /// current real copy, not against a stale real copy of the same
    /// address held on chip.
    #[test]
    fn advance_skips_stale_real_copy_in_treetop() {
        let cfg = OramConfig::small_test().with_dup_policy(DupPolicy::RdOnly).with_treetop(1);
        let (z, levels) = (cfg.z as u64, cfg.levels as u64);
        let mut ctl = OramController::new(cfg).unwrap();
        let addr = BlockAddr::new(5);
        // On an empty tree the real copy lands in its leaf bucket, slot 0;
        // restamp it under a newer version, so that a copy of the older
        // one (at an older label) is stale.
        ctl.prefill([(addr, 55)]);
        let version = ctl.posmap.bump_version(addr);
        let e = ctl.posmap.peek(addr).unwrap();
        let on_path = |level| ctl.shape.bucket_on_path(e.label, level);
        let (root, first_dram, leaf) = (on_path(0), on_path(1), on_path(ctl.shape.levels()));
        let real = Block::real(addr, e.label, 55, version);
        ctl.tree.set_slot(leaf, 0, real);
        ctl.tree.set_slot(first_dram, 0, real.to_shadow());
        let old_label = LeafLabel::new((e.label.raw() + 1) % ctl.shape.leaf_count());
        ctl.tree.set_slot(root, 0, Block::real(addr, old_label, 11, version - 1));

        let r = ctl.access(Request::read(addr));
        assert_eq!(r.value, 55);
        assert!(matches!(r.served, ServedFrom::Dram { block_index: 0, via_shadow: true, .. }));
        let s = ctl.stats();
        assert_eq!(s.stale_discarded, 1, "the on-chip copy is stale");
        assert_eq!(s.shadow_advanced, 1);
        // The leaf's slot 0 follows the other `levels - 1` DRAM levels.
        assert_eq!(s.real_position_sum - s.served_position_sum, (levels - 1) * z);
    }

    #[test]
    fn hd_dup_runs_with_disabled_hot_cache() {
        // Size-0 Hot Address Cache: HD-Dup must still be functional
        // (arbitrary candidate choice), just unguided.
        let mut cfg = OramConfig::small_test().with_dup_policy(DupPolicy::HdOnly);
        cfg.hot_cache_sets = 0;
        let mut ctl = OramController::new(cfg).unwrap();
        assert!(!ctl.hot_cache().is_enabled());
        run_workload(&mut ctl, 600);
        assert!(ctl.stats().hd_shadows_written > 0, "HD-Dup still fills slots");
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn hot_cache_counters_survive_posmap_remaps() {
        // The Hot Address Cache is keyed by program address; every access
        // remaps the block to a new leaf, and hotness must accumulate
        // across those remaps rather than reset.
        let mut ctl = controller(DupPolicy::HdOnly);
        for _ in 0..8 {
            ctl.access(Request::read(BlockAddr::new(3)));
        }
        assert_eq!(ctl.hot_cache().priority(BlockAddr::new(3)), 8);
    }

    #[test]
    fn dynamic_policy_reports_partition_level() {
        let ctl = controller(DupPolicy::Dynamic { counter_bits: 3 });
        assert!(ctl.partition_level().is_some());
        let ctl = controller(DupPolicy::Off);
        assert!(ctl.partition_level().is_none());
    }

    #[test]
    fn split_phase_access_matches_monolithic_access() {
        // access() is defined as issue + complete; a controller driven
        // through the split API must stay bit-identical to one driven
        // through the monolithic call — results, stats, and bus trace.
        let mut whole = controller(DupPolicy::Off);
        let mut split = controller(DupPolicy::Off);
        let (whole_bus, split_bus) = (observe(&mut whole), observe(&mut split));
        for i in 0..500u64 {
            let addr = BlockAddr::new((i * 13) % 96);
            let req = if i % 5 == 0 { Request::write(addr, i) } else { Request::read(addr) };
            let a = whole.access(req);
            let (mut b, ticket) = split.access_issue(req);
            assert!(b.phases.len() <= 1, "issue half carries at most the RO phase");
            if let Some((er, ew)) = split.access_complete(ticket) {
                assert!(ticket.eviction_due());
                b.phases.push(er);
                b.phases.push(ew);
            }
            assert_eq!(a, b, "access {i}");
        }
        assert_eq!(whole.stats(), split.stats());
        assert_eq!(*whole_bus.lock().unwrap(), *split_bus.lock().unwrap());
    }

    #[test]
    fn zero_sized_plb_is_a_config_error() {
        let mut cfg = OramConfig::small_test();
        cfg.plb_entries = 0;
        assert!(OramController::new(cfg).is_err());
        let mut cfg = OramConfig::small_test().with_posmap(crate::PosMapSelect::Sparse);
        cfg.plb_page_addrs = 0;
        assert!(OramController::new(cfg).is_err());
    }

    #[test]
    fn stash_hit_tickets_are_inert() {
        let mut ctl = controller(DupPolicy::Off);
        ctl.access(Request::write(BlockAddr::new(7), 1));
        // The fresh write leaves the block stash-resident; the re-read is
        // a pure stash hit whose ticket completes to nothing.
        let (r, ticket) = ctl.access_issue(Request::read(BlockAddr::new(7)));
        assert_eq!(r.served, ServedFrom::Stash);
        assert!(!ticket.open());
        assert!(!ticket.eviction_due());
        assert!(ctl.access_complete(ticket).is_none());
    }
}
