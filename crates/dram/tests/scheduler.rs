//! Differential test of the channel scheduler against the model it
//! replaced.
//!
//! `reference` below is the original per-channel controller kept as a
//! test oracle: a `VecDeque` queue rescanned linearly through
//! `banks[rank][bank]` for every FR-FCFS pick and compacted with
//! `VecDeque::remove`, fed by the div/mod address decode, one transaction
//! at a time. The shipped [`DramSystem`] (same-row runs timed in closed
//! form, bitset pick, flat banks, shift/mask decode) must agree with it on
//! every simulated output after every batch.

use oram_dram::{
    AddressMapping, BlockRequest, ChannelStats, ChannelUtilization, DramConfig, DramSystem,
    EnergyCounters, Interleave, Location, SubtreeLayout, TxBreakdown,
};
use oram_util::Rng64;

mod reference {
    use std::collections::VecDeque;

    use oram_dram::{
        Bank, BlockRequest, ChannelStats, ChannelUtilization, Command, DramConfig, EnergyCounters,
        Interleave, Location, RowState, TxBreakdown, QUEUE_DEPTH_BUCKETS,
    };

    /// Exact div/mod decode, one runtime division pair per field.
    pub fn decode(cfg: &DramConfig, interleave: Interleave, block_addr: u64) -> Location {
        let (channels, ranks, banks, bursts) =
            (cfg.channels as u64, cfg.ranks as u64, cfg.banks as u64, cfg.bursts_per_row() as u64);
        let mut a = block_addr;
        let channel = (a % channels) as usize;
        a /= channels;
        match interleave {
            Interleave::RowRankBankColChan => {
                let column = (a % bursts) as usize;
                a /= bursts;
                let bank = (a % banks) as usize;
                a /= banks;
                let rank = (a % ranks) as usize;
                a /= ranks;
                Location { channel, rank, bank, row: a, column }
            }
            Interleave::RowColRankBankChan => {
                let bank = (a % banks) as usize;
                a /= banks;
                let rank = (a % ranks) as usize;
                a /= ranks;
                let column = (a % bursts) as usize;
                a /= bursts;
                Location { channel, rank, bank, row: a, column }
            }
        }
    }

    #[derive(Clone, Copy)]
    struct Transaction {
        id: usize,
        loc: Location,
        is_write: bool,
        arrival: i64,
    }

    pub struct Channel {
        cfg: DramConfig,
        banks: Vec<Vec<Bank>>, // [rank][bank]
        queue: VecDeque<Transaction>,
        bus_free: i64,
        recent_activates: Vec<VecDeque<i64>>,
        next_refresh: Vec<i64>,
        pub stats: ChannelStats,
        pub energy: EnergyCounters,
        pub batch_crit: Option<TxBreakdown>,
        busy_cycles: u64,
        queue_depth_hist: [u64; QUEUE_DEPTH_BUCKETS],
        bank_touches: Vec<u64>,
        bank_busy: Vec<u64>,
    }

    impl Channel {
        fn new(cfg: DramConfig) -> Self {
            Channel {
                banks: vec![vec![Bank::new(); cfg.banks]; cfg.ranks],
                queue: VecDeque::new(),
                bus_free: 0,
                recent_activates: vec![VecDeque::new(); cfg.ranks],
                next_refresh: vec![cfg.trefi as i64; cfg.ranks],
                stats: ChannelStats::default(),
                energy: EnergyCounters::default(),
                batch_crit: None,
                busy_cycles: 0,
                queue_depth_hist: [0; QUEUE_DEPTH_BUCKETS],
                bank_touches: vec![0; cfg.ranks * cfg.banks],
                bank_busy: vec![0; cfg.ranks * cfg.banks],
                cfg,
            }
        }

        pub fn utilization(&self) -> ChannelUtilization {
            ChannelUtilization {
                stats: self.stats,
                busy_cycles: self.busy_cycles,
                queue_depth_hist: self.queue_depth_hist.to_vec(),
                bank_touches: self.bank_touches.clone(),
                bank_busy: self.bank_busy.clone(),
            }
        }

        fn submit(&mut self, t: Transaction) {
            self.queue_depth_hist[self.queue.len().min(QUEUE_DEPTH_BUCKETS - 1)] += 1;
            self.queue.push_back(t);
        }

        fn drain_unordered(
            &mut self,
            now: i64,
            occupy_bus: bool,
            mut sink: impl FnMut(usize, i64),
        ) {
            while !self.queue.is_empty() {
                let idx = self.pick_fr_fcfs();
                let t = self.queue.remove(idx).expect("index in range");
                let finish = self.service_one(&t, now, occupy_bus);
                sink(t.id, finish);
            }
        }

        fn pick_fr_fcfs(&self) -> usize {
            for (i, t) in self.queue.iter().enumerate() {
                if self.banks[t.loc.rank][t.loc.bank].is_open(t.loc.row) {
                    return i;
                }
            }
            0
        }

        fn service_one(&mut self, t: &Transaction, now: i64, occupy_bus: bool) -> i64 {
            let cfg = self.cfg;
            let base = now.max(t.arrival);
            self.maybe_refresh(t.loc.rank, base);

            let mut row_start = base;
            let mut row_end = base;
            let bank_state = self.banks[t.loc.rank][t.loc.bank].state();
            match bank_state {
                RowState::Open(r) if r == t.loc.row => {
                    self.stats.row_hits += 1;
                }
                RowState::Open(_) => {
                    self.stats.row_conflicts += 1;
                    let at = self.banks[t.loc.rank][t.loc.bank]
                        .earliest(Command::Precharge, &cfg)
                        .max(base);
                    self.banks[t.loc.rank][t.loc.bank].issue(Command::Precharge, at, 0, &cfg);
                    self.stats.precharges += 1;
                    self.energy.precharges += 1;
                    self.activate(t.loc, base);
                    row_start = at;
                    row_end = self.banks[t.loc.rank][t.loc.bank].row_ready(&cfg);
                }
                RowState::Idle => {
                    self.stats.row_misses += 1;
                    let act_at = self.activate(t.loc, base);
                    row_start = act_at;
                    row_end = self.banks[t.loc.rank][t.loc.bank].row_ready(&cfg);
                }
            }

            let cmd = if t.is_write { Command::Write } else { Command::Read };
            let bank_ready = self.banks[t.loc.rank][t.loc.bank].earliest(cmd, &cfg).max(base);
            let latency = if t.is_write { cfg.cwl } else { cfg.cl } as i64;
            let use_bus = occupy_bus || t.is_write;
            let issue = if use_bus { bank_ready.max(self.bus_free - latency) } else { bank_ready };
            self.banks[t.loc.rank][t.loc.bank].issue(cmd, issue, t.loc.row, &cfg);
            let data_start = issue + latency;
            let finish = data_start + cfg.burst_cycles() as i64;
            if use_bus {
                self.bus_free = finish;
                self.busy_cycles += cfg.burst_cycles();
            }

            let row_d = row_end.min(issue).saturating_sub(row_start.max(base)).max(0) as u64;
            let queue_d = (issue - base) as u64 - row_d;
            let transfer_d = (finish - issue) as u64;
            let bd = TxBreakdown { queue: queue_d, row: row_d, transfer: transfer_d, finish };
            if self.batch_crit.is_none_or(|c| finish > c.finish) {
                self.batch_crit = Some(bd);
            }
            let flat = t.loc.rank * cfg.banks + t.loc.bank;
            self.bank_touches[flat] += 1;
            self.bank_busy[flat] += row_d + transfer_d;

            if t.is_write {
                self.stats.writes += 1;
                self.energy.write_bursts += 1;
            } else {
                self.stats.reads += 1;
                self.energy.read_bursts += 1;
            }
            self.energy.busy_until = self.energy.busy_until.max(finish);
            finish
        }

        fn activate(&mut self, loc: Location, base: i64) -> i64 {
            let cfg = self.cfg;
            let mut at = self.banks[loc.rank][loc.bank].earliest(Command::Activate, &cfg).max(base);
            {
                let recent = &mut self.recent_activates[loc.rank];
                if let Some(&last) = recent.back() {
                    at = at.max(last + cfg.trrd as i64);
                }
                if recent.len() >= 4 {
                    let fourth_last = recent[recent.len() - 4];
                    at = at.max(fourth_last + cfg.tfaw as i64);
                }
            }
            self.banks[loc.rank][loc.bank].issue(Command::Activate, at, loc.row, &cfg);
            let recent = &mut self.recent_activates[loc.rank];
            recent.push_back(at);
            if recent.len() > 8 {
                recent.pop_front();
            }
            self.stats.activates += 1;
            self.energy.activates += 1;
            at
        }

        fn maybe_refresh(&mut self, rank: usize, now: i64) {
            if self.cfg.trefi == 0 {
                return;
            }
            while self.next_refresh[rank] <= now {
                let deadline = self.next_refresh[rank];
                for b in 0..self.cfg.banks {
                    if self.banks[rank][b].state() != RowState::Idle {
                        let at = self.banks[rank][b]
                            .earliest(Command::Precharge, &self.cfg)
                            .max(deadline);
                        self.banks[rank][b].issue(Command::Precharge, at, 0, &self.cfg);
                        self.stats.precharges += 1;
                        self.energy.precharges += 1;
                    }
                }
                let resume = deadline + self.cfg.trfc as i64;
                for b in 0..self.cfg.banks {
                    self.banks[rank][b].stall_until(resume, &self.cfg);
                }
                self.stats.refreshes += 1;
                self.energy.refreshes += 1;
                self.next_refresh[rank] += self.cfg.trefi as i64;
            }
        }
    }

    /// The original `DramSystem::service_batch_into` over [`Channel`]s.
    pub struct System {
        cfg: DramConfig,
        interleave: Interleave,
        pub channels: Vec<Channel>,
    }

    impl System {
        pub fn new(cfg: DramConfig, interleave: Interleave) -> Self {
            System {
                cfg,
                interleave,
                channels: (0..cfg.channels).map(|_| Channel::new(cfg)).collect(),
            }
        }

        pub fn service_batch(
            &mut self,
            now: i64,
            reqs: &[BlockRequest],
            occupy_bus: bool,
        ) -> Vec<i64> {
            for (id, r) in reqs.iter().enumerate() {
                let loc = decode(&self.cfg, self.interleave, r.addr);
                self.channels[loc.channel].submit(Transaction {
                    id,
                    loc,
                    is_write: r.is_write,
                    arrival: now,
                });
            }
            let mut finishes = vec![0; reqs.len()];
            for ch in &mut self.channels {
                ch.batch_crit = None;
                ch.drain_unordered(now, occupy_bus, |id, finish| finishes[id] = finish);
            }
            finishes
        }

        pub fn last_batch_breakdown(&self) -> Option<TxBreakdown> {
            self.channels.iter().filter_map(|ch| ch.batch_crit).max_by_key(|bd| bd.finish)
        }
    }
}

/// Table I shape: every dimension a power of two.
fn two_channel(trefi: u64) -> DramConfig {
    DramConfig { trefi, trfc: 40, ..DramConfig::ddr3_1333() }
}

fn one_channel(trefi: u64) -> DramConfig {
    DramConfig { channels: 1, ..two_channel(trefi) }
}

/// No dimension a power of two: 3 channels × 1 rank × 6 banks, 96 bursts
/// per row.
fn odd_geometry(trefi: u64) -> DramConfig {
    DramConfig { channels: 3, ranks: 1, banks: 6, row_bytes: 96 * 64, ..two_channel(trefi) }
}

/// One random batch: runs of consecutive blocks (an ORAM bucket is `z`
/// contiguous blocks) at bases drawn from a window small enough that
/// batches revisit rows and collide on banks.
fn random_batch(rng: &mut Rng64, blocks: u64, max_len: u64) -> Vec<BlockRequest> {
    let len = 1 + rng.below(max_len) as usize;
    let write_share = [0.0, 0.3, 1.0][rng.below(3) as usize];
    let mut reqs = Vec::with_capacity(len);
    while reqs.len() < len {
        let base = rng.below(blocks);
        for i in 0..1 + rng.below(8) {
            let addr = base + i;
            reqs.push(if rng.gen_bool(write_share) {
                BlockRequest::write(addr)
            } else {
                BlockRequest::read(addr)
            });
        }
    }
    reqs.truncate(len);
    reqs
}

fn merged_stats(channels: &[reference::Channel]) -> ChannelStats {
    let mut total = ChannelStats::default();
    for ch in channels {
        total.reads += ch.stats.reads;
        total.writes += ch.stats.writes;
        total.row_hits += ch.stats.row_hits;
        total.row_misses += ch.stats.row_misses;
        total.row_conflicts += ch.stats.row_conflicts;
        total.activates += ch.stats.activates;
        total.precharges += ch.stats.precharges;
        total.refreshes += ch.stats.refreshes;
    }
    total
}

/// [`random_batch`]es over about three rows per bank, so hits, misses
/// and conflicts all occur; reads hold the bus in 70 % of them.
fn random_traffic(
    cfg: DramConfig,
    max_len: u64,
) -> impl FnMut(&mut Rng64) -> (Vec<BlockRequest>, bool) {
    let blocks = (cfg.channels * cfg.ranks * cfg.banks * cfg.bursts_per_row() * 3) as u64;
    move |rng| (random_batch(rng, blocks, max_len), rng.gen_bool(0.7))
}

/// The engine's bus traffic at eviction rate 2 over a depth-`levels`
/// tree in the sub-tree layout: the read-only path of a random leaf, then
/// the eviction read and the eviction write of the next
/// reverse-lexicographic leaf — the write finds every row its read
/// opened, a batch that is all hits on arrival. With `xor` the read-only
/// reads bypass the data bus, as `Engine::run_phase` issues them under
/// XOR compression.
fn path_traffic(
    cfg: DramConfig,
    levels: u32,
    xor: bool,
) -> impl FnMut(&mut Rng64) -> (Vec<BlockRequest>, bool) {
    const Z: usize = 5;
    let layout = SubtreeLayout::fit_to_row(&cfg, Z);
    let (mut issued, mut leaf) = (0u64, 0u64);
    move |rng| {
        let phase = issued % 3;
        match phase {
            0 => leaf = rng.below(1 << levels),
            1 => leaf = (issued / 3).reverse_bits() >> (u64::BITS - levels),
            _ => {}
        }
        issued += 1;
        let leaf_bucket = (1u64 << levels) + leaf;
        let reqs = (0..=levels)
            .flat_map(|level| {
                let base = layout.block_addr(leaf_bucket >> (levels - level), 0);
                let is_write = phase == 2;
                (0..Z as u64).map(move |slot| BlockRequest { addr: base + slot, is_write })
            })
            .collect();
        (reqs, !(xor && phase == 0))
    }
}

/// Compares every simulated output of the two models after a batch.
fn assert_same_outputs(new: &DramSystem, old: &reference::System, ctx: &str) {
    assert_eq!(new.stats(), merged_stats(&old.channels), "stats: {ctx}");
    let energy =
        old.channels.iter().fold(EnergyCounters::default(), |acc, ch| acc.merged(ch.energy));
    assert_eq!(new.energy(), energy, "energy: {ctx}");
    let util: Vec<ChannelUtilization> =
        old.channels.iter().map(reference::Channel::utilization).collect();
    assert_eq!(new.utilization(), util, "utilization: {ctx}");
    let crit: Option<TxBreakdown> = old.last_batch_breakdown();
    assert_eq!(new.last_batch_breakdown(), crit, "critical breakdown: {ctx}");
}

/// Drives `batches` batches of `traffic` (requests, whether reads hold
/// the bus) through both models and compares every simulated output
/// after each one. Returns the shipped model's final statistics.
fn assert_models_agree(
    cfg: DramConfig,
    interleave: Interleave,
    batches: u32,
    seed: u64,
    mut traffic: impl FnMut(&mut Rng64) -> (Vec<BlockRequest>, bool),
) -> ChannelStats {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut new = DramSystem::with_interleave(cfg, interleave).expect("valid geometry");
    let mut old = reference::System::new(cfg, interleave);
    let mut now = 0i64;
    let mut finishes = Vec::new();
    let mut refreshes_mid_run = false;
    for batch in 0..batches {
        let (reqs, occupy_bus) = traffic(&mut rng);
        let ctx = format!(
            "{cfg:?} {interleave:?} seed {seed} batch {batch} (n = {}, occupy_bus {occupy_bus})",
            reqs.len()
        );

        new.service_batch_into(now, &reqs, occupy_bus, &mut finishes);
        let expect = old.service_batch(now, &reqs, occupy_bus);
        assert_eq!(finishes, expect, "finishes: {ctx}");
        assert_same_outputs(&new, &old, &ctx);

        refreshes_mid_run |= batch > 0 && new.stats().refreshes > 0;
        // Mostly back to back; sometimes an idle gap (several refresh
        // intervals at once), sometimes issued under the previous
        // batch's tail, as the pipelined engine does.
        let end = finishes.iter().copied().max().expect("non-empty batch");
        now = match rng.below(10) {
            0 => end + rng.below(4_000) as i64,
            1 | 2 => now + (end - now) / 2,
            _ => end,
        };
    }
    if cfg.trefi > 0 {
        assert!(refreshes_mid_run, "refresh never fired: {cfg:?}");
    }
    new.stats()
}

#[test]
fn bitset_scheduler_matches_the_linear_scan_model() {
    // A refresh interval shorter than a long drain, so ranks go idle
    // between two picks of one batch; and refresh off.
    let mut seed = 0x5EED_0001;
    for trefi in [0, 350] {
        for cfg in [two_channel(trefi), one_channel(trefi), odd_geometry(trefi)] {
            for interleave in [Interleave::RowRankBankColChan, Interleave::RowColRankBankChan] {
                // Up to 300 requests on one channel: five bitset words.
                let max_len = 300 * cfg.channels as u64;
                assert_models_agree(cfg, interleave, 60, seed, random_traffic(cfg, max_len));
                // Path-sized batches, many of them: state carried far.
                assert_models_agree(cfg, interleave, 300, seed + 1, random_traffic(cfg, 90));
                seed += 2;
            }
        }
    }
}

#[test]
fn oram_path_sequences_match_the_linear_scan_model() {
    // What the engine issues, where nearly every block is a row hit —
    // half of them the moment they arrive — at the scaled and the paper's
    // depth, with refresh off, inside most drains, and at the DDR3 rate.
    let mut seed = 0x0A7B_0001;
    for cfg in [two_channel(0), two_channel(350), DramConfig::ddr3_1333(), one_channel(350)] {
        for (levels, accesses) in [(14, 400), (24, 150)] {
            for xor in [false, true] {
                let stats = assert_models_agree(
                    cfg,
                    Interleave::RowRankBankColChan,
                    3 * accesses,
                    seed,
                    path_traffic(cfg, levels, xor),
                );
                let served = stats.row_hits + stats.row_misses + stats.row_conflicts;
                assert_eq!(served, u64::from(3 * accesses * (levels + 1) * 5));
                // The layout's point; frequent refresh costs a few hits.
                assert!(stats.row_hits * 10 > served * 8, "{cfg:?} L = {levels}: {stats:?}");
                seed += 1;
            }
        }
    }
}

/// Batches made of same-row runs, the unit the shipped scheduler queues:
/// 1–12 runs of 1–40 blocks, each on one (channel, rank, bank, row) and in
/// one direction, columns in any order. A third of the runs go back to a
/// place an earlier run of the batch used (the same row again behind
/// other runs, or another row of that bank: a conflict with followers).
/// Each channel sees its runs whole and in order; the channels' streams
/// are interleaved block by block, as consecutive addresses are. Reads
/// hold the bus in half the batches.
fn run_traffic(
    cfg: DramConfig,
    interleave: Interleave,
) -> impl FnMut(&mut Rng64) -> (Vec<BlockRequest>, bool) {
    move |rng| {
        let mut places: Vec<Location> = Vec::new();
        let mut streams: Vec<Vec<BlockRequest>> = vec![Vec::new(); cfg.channels];
        for _ in 0..1 + rng.below(12) {
            let mut place = Location {
                channel: rng.below(cfg.channels as u64) as usize,
                rank: rng.below(cfg.ranks as u64) as usize,
                bank: rng.below(cfg.banks as u64) as usize,
                row: rng.below(3),
                column: 0,
            };
            if !places.is_empty() && rng.gen_bool(0.33) {
                place = places[rng.below(places.len() as u64) as usize];
                if rng.gen_bool(0.3) {
                    place.row = (place.row + 1) % 3;
                }
            }
            places.push(place);
            let is_write = rng.gen_bool(0.4);
            for _ in 0..1 + rng.below(40) {
                let column = rng.below(cfg.bursts_per_row() as u64) as usize;
                let addr = encode_with(&cfg, interleave, Location { column, ..place });
                streams[place.channel].push(BlockRequest { addr, is_write });
            }
        }
        let mut heads = vec![0; cfg.channels];
        let mut reqs = Vec::new();
        loop {
            let waiting: Vec<usize> =
                (0..cfg.channels).filter(|&c| heads[c] < streams[c].len()).collect();
            if waiting.is_empty() {
                break;
            }
            let c = waiting[rng.below(waiting.len() as u64) as usize];
            reqs.push(streams[c][heads[c]]);
            heads[c] += 1;
        }
        (reqs, rng.gen_bool(0.5))
    }
}

#[test]
fn run_shaped_batches_match_the_linear_scan_model() {
    // Refresh off, inside most drains (a run is then picked with a
    // refresh due, its own rank's or another's), and at the DDR3 rate.
    let mut seed = 0x5EED_2001;
    for trefi in [0, 350, 5200] {
        for cfg in [two_channel(trefi), one_channel(trefi), odd_geometry(trefi)] {
            for interleave in [Interleave::RowRankBankColChan, Interleave::RowColRankBankChan] {
                let stats =
                    assert_models_agree(cfg, interleave, 160, seed, run_traffic(cfg, interleave));
                let served = stats.row_hits + stats.row_misses + stats.row_conflicts;
                // Runs of 20 blocks on average: nearly everything hits.
                assert!(stats.row_hits * 10 > served * 8, "{cfg:?}: {stats:?}");
                assert!(stats.row_conflicts > 0, "{cfg:?}: {stats:?}");
                seed += 1;
            }
        }
    }
}

/// Batches of stretches of consecutive addresses, the shape an ORAM
/// bucket gives a batch, placed where a channel's blocks of the stretch
/// leave their row: a stretch from the last columns of a bank wraps the
/// column into the next bank (under [`Interleave::RowRankBankColChan`]),
/// one from the last bank of the last rank steps to the next row. Some
/// stretches flip direction partway through; scattered blocks fall
/// between them. Reads hold the bus in half the batches.
fn stretch_traffic(
    cfg: DramConfig,
    interleave: Interleave,
) -> impl FnMut(&mut Rng64) -> (Vec<BlockRequest>, bool) {
    move |rng| {
        let lap = cfg.channels as u64;
        let mut reqs = Vec::new();
        for _ in 0..1 + rng.below(10) {
            if rng.gen_bool(0.25) {
                let addr =
                    rng.below(lap * 3 * (cfg.ranks * cfg.banks * cfg.bursts_per_row()) as u64);
                reqs.push(BlockRequest { addr, is_write: rng.gen_bool(0.5) });
                continue;
            }
            let last_bank = rng.gen_bool(0.5);
            let start = Location {
                channel: rng.below(lap) as usize,
                rank: if last_bank { cfg.ranks - 1 } else { rng.below(cfg.ranks as u64) as usize },
                bank: if last_bank { cfg.banks - 1 } else { rng.below(cfg.banks as u64) as usize },
                row: rng.below(3),
                column: cfg.bursts_per_row() - 1 - rng.below(3) as usize,
            };
            let base = encode_with(&cfg, interleave, start);
            let len = 1 + rng.below(lap * 6);
            let flip = rng.gen_bool(0.3).then(|| rng.below(len));
            let mut is_write = rng.gen_bool(0.4);
            for i in 0..len {
                is_write ^= flip == Some(i);
                reqs.push(BlockRequest { addr: base + i, is_write });
            }
        }
        (reqs, rng.gen_bool(0.5))
    }
}

#[test]
fn stretches_across_row_edges_match_the_linear_scan_model() {
    // Refresh off, inside most drains, and at the DDR3 rate.
    let mut seed = 0x5EED_3001;
    for trefi in [0, 350, 5200] {
        for cfg in [two_channel(trefi), one_channel(trefi), odd_geometry(trefi)] {
            for interleave in [Interleave::RowRankBankColChan, Interleave::RowColRankBankChan] {
                let stats = assert_models_agree(
                    cfg,
                    interleave,
                    200,
                    seed,
                    stretch_traffic(cfg, interleave),
                );
                assert!(stats.row_hits > 0 && stats.row_conflicts > 0, "{cfg:?}: {stats:?}");
                seed += 1;
            }
        }
    }
}

/// Block address of `(channel, rank, bank, row, column)` under
/// `interleave`: the inverse of the decode.
fn encode_with(cfg: &DramConfig, interleave: Interleave, loc: Location) -> u64 {
    let (ranks, banks, bursts) = (cfg.ranks as u64, cfg.banks as u64, cfg.bursts_per_row() as u64);
    let (rank, bank, column) = (loc.rank as u64, loc.bank as u64, loc.column as u64);
    let row = loc.row;
    let a = match interleave {
        Interleave::RowRankBankColChan => ((row * ranks + rank) * banks + bank) * bursts + column,
        Interleave::RowColRankBankChan => ((row * bursts + column) * ranks + rank) * banks + bank,
    };
    a * cfg.channels as u64 + loc.channel as u64
}

/// [`encode_with`] under [`Interleave::RowRankBankColChan`].
fn encode(cfg: &DramConfig, loc: Location) -> u64 {
    encode_with(cfg, Interleave::RowRankBankColChan, loc)
}

#[test]
fn refresh_edges_match_the_linear_scan_model() {
    // One channel, two ranks, first refresh of both ranks due at 1000.
    let cfg = DramConfig { trefi: 1000, ..one_channel(0) };
    let at = |rank, bank, row, column| {
        let loc = Location { channel: 0, rank, bank, row, column };
        let addr = encode(&cfg, loc);
        assert_eq!(AddressMapping::new(&cfg, Interleave::RowRankBankColChan).decode(addr), loc);
        addr
    };
    let read = |rank, bank, row, column| BlockRequest::read(at(rank, bank, row, column));
    let write = |rank, bank, row, column| BlockRequest::write(at(rank, bank, row, column));
    // Opens row 3 of bank 0 in either rank and row 5 of rank 0's bank 1,
    // done long before the refresh.
    let warm_up = vec![read(0, 0, 3, 0), read(1, 0, 3, 0), read(0, 1, 5, 0)];
    // Its first block would hit rank 0's open row; then a hit in the
    // other rank, a conflict with followers, more hits behind them.
    let mixed = vec![
        read(0, 0, 3, 1),
        read(1, 0, 3, 1),
        write(0, 1, 6, 0),
        write(0, 1, 6, 1),
        read(0, 0, 3, 2),
        read(1, 0, 3, 2),
        read(1, 2, 9, 0),
    ];
    let rank0_only = vec![read(0, 0, 3, 1), read(0, 1, 5, 1), read(0, 0, 4, 0), read(0, 0, 3, 2)];
    let rank1_only = vec![read(1, 0, 3, 1), read(1, 0, 3, 2)];

    struct Case {
        name: &'static str,
        /// Batches after the warm-up, each with its arrival cycle.
        batches: Vec<(i64, Vec<BlockRequest>)>,
        /// Refreshes performed and row hits scored by the end.
        refreshes: u64,
        row_hits: u64,
    }
    let cases = [
        Case {
            name: "one cycle before the deadline: nothing is due, open rows hit on arrival",
            batches: vec![(999, mixed.clone())],
            refreshes: 0,
            row_hits: 5,
        },
        Case {
            name: "now == refresh_due: both ranks refresh in one drain, the first block's row gone",
            batches: vec![(1000, mixed.clone())],
            refreshes: 2,
            row_hits: 3,
        },
        Case {
            name: "one cycle past the deadline",
            batches: vec![(1001, mixed.clone())],
            refreshes: 2,
            row_hits: 3,
        },
        Case {
            name: "three intervals overdue",
            batches: vec![(3005, mixed.clone())],
            refreshes: 6,
            row_hits: 3,
        },
        Case {
            name: "the due rank is not the one the batch touches first",
            batches: vec![(1000, rank1_only.iter().chain(&rank0_only).copied().collect())],
            refreshes: 2,
            row_hits: 2,
        },
        Case {
            name: "a rank left due by one batch refreshes in a later one",
            batches: vec![
                (1000, rank0_only.clone()),
                (1200, rank0_only.clone()),
                (1400, rank1_only.clone()),
                (1500, mixed.clone()),
            ],
            refreshes: 2,
            row_hits: 2 + 2 + 1 + 5,
        },
        Case {
            name: "an empty batch at the deadline refreshes nothing and resets the breakdown",
            batches: vec![(1000, vec![]), (1000, mixed.clone())],
            refreshes: 2,
            row_hits: 3,
        },
        Case {
            name: "a run queued on its open row while its rank is due: its first block \
                   refreshes the rank and opens the row again, the rest follow as hits",
            batches: vec![(1000, (1..=6).map(|column| read(0, 0, 3, column)).collect())],
            refreshes: 1,
            row_hits: 5,
        },
        Case {
            name: "runs picked while the other rank stays due and is never touched: \
                   nothing is served on arrival, hit or not",
            batches: vec![
                (1000, vec![read(0, 0, 3, 1)]),
                (
                    1100,
                    (2..=6)
                        .map(|column| read(0, 0, 3, column))
                        .chain((1..=4).map(|column| write(0, 1, 5, column)))
                        .collect(),
                ),
            ],
            refreshes: 1,
            row_hits: 5 + 3,
        },
        Case {
            name: "the refresh an older hit in the rank sets off closes a waiting run's row: \
                   the run is then a miss with followers",
            batches: vec![(
                1000,
                std::iter::once(read(0, 1, 5, 1))
                    .chain((1..=5).map(|column| read(0, 0, 3, column)))
                    .collect(),
            )],
            refreshes: 1,
            row_hits: 4,
        },
    ];
    for case in cases {
        for occupy_bus in [true, false] {
            let ctx = format!("{} (occupy_bus {occupy_bus})", case.name);
            let mut new = DramSystem::new(cfg).unwrap();
            let mut old = reference::System::new(cfg, Interleave::RowRankBankColChan);
            let done = new.service_batch_with(0, &warm_up, occupy_bus);
            assert_eq!(done, old.service_batch(0, &warm_up, occupy_bus), "warm-up: {ctx}");
            assert!(done.iter().all(|&f| f < 100), "warm-up ran into the deadline: {done:?}");
            for (now, reqs) in &case.batches {
                let got = new.service_batch_with(*now, reqs, occupy_bus);
                assert_eq!(got, old.service_batch(*now, reqs, occupy_bus), "finishes: {ctx}");
                assert_same_outputs(&new, &old, &ctx);
                assert_eq!(new.last_batch_breakdown().is_none(), reqs.is_empty(), "{ctx}");
            }
            assert_eq!(new.stats().refreshes, case.refreshes, "{ctx}");
            assert_eq!(new.stats().row_hits, case.row_hits, "{ctx}");
        }
    }
}

#[test]
fn run_edges_match_the_linear_scan_model() {
    /// Serves `reqs` at `now` on both models, compares every output and
    /// returns the finishes with the number of runs the shipped model
    /// timed.
    fn serve(
        new: &mut DramSystem,
        old: &mut reference::System,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        ctx: &str,
    ) -> (Vec<i64>, u64) {
        let runs = new.runs();
        let got = new.service_batch_with(now, reqs, occupy_bus);
        assert_eq!(got, old.service_batch(now, reqs, occupy_bus), "finishes: {ctx}");
        assert_same_outputs(new, old, ctx);
        (got, new.runs() - runs)
    }
    let both = |cfg| {
        (DramSystem::new(cfg).unwrap(), reference::System::new(cfg, Interleave::RowRankBankColChan))
    };
    let cfg = one_channel(0);
    let at = |bank, row, column| encode(&cfg, Location { channel: 0, rank: 0, bank, row, column });
    let row_of_reads = |bank, row| -> Vec<BlockRequest> {
        (0..6).map(|column| BlockRequest::read(at(bank, row, column))).collect()
    };
    let burst = cfg.burst_cycles() as i64;
    let transfer = cfg.cl + cfg.burst_cycles();

    // Reads that bypass the data bus all issue in the cycle the row is
    // ready, so a run's finishes tie, and the batch-critical transaction
    // is the first to reach the latest finish: the run's first block, the
    // one that waited behind the activate.
    let (mut new, mut old) = both(cfg);
    let (done, runs) = serve(&mut new, &mut old, 0, &row_of_reads(0, 3), false, "tie, miss");
    assert_eq!((done, runs), (vec![(cfg.trcd + transfer) as i64; 6], 1));
    let first =
        TxBreakdown { queue: 0, row: cfg.trcd, transfer, finish: (cfg.trcd + transfer) as i64 };
    assert_eq!(new.last_batch_breakdown(), Some(first), "the run's first block is critical");
    // The same run as hits on arrival, and behind a conflict on its bank.
    serve(&mut new, &mut old, 100, &row_of_reads(0, 3), false, "tie, hits");
    let conflict: Vec<BlockRequest> =
        row_of_reads(0, 4).into_iter().chain(row_of_reads(0, 3)).collect();
    let (done, runs) = serve(&mut new, &mut old, 200, &conflict, false, "tie, conflict");
    assert!(done[..6].iter().all(|&f| f == done[0]) && done[6..].iter().all(|&f| f == done[6]));
    assert_eq!(runs, 2);

    // Reads that hold the bus finish a burst apart, so the last block of
    // the run is critical, and it waited behind no row operation.
    let (mut new, mut old) = both(cfg);
    let (done, _) = serve(&mut new, &mut old, 0, &row_of_reads(0, 3), true, "ascending");
    assert!(done.windows(2).all(|w| w[1] - w[0] == burst), "{done:?}");
    let last = new.last_batch_breakdown().unwrap();
    assert_eq!((last.row, last.finish), (0, done[5]));

    // A bucket that straddles a row boundary is two runs: the row's last
    // two columns, then the first three of the next bank's row.
    let (mut new, mut old) = both(cfg);
    let bucket: Vec<BlockRequest> =
        (126..=130).map(|i| BlockRequest::read(at(2, 1, 0) + i)).collect();
    let (_, runs) = serve(&mut new, &mut old, 0, &bucket, true, "row edge");
    assert_eq!((runs, new.stats().row_misses, new.stats().row_hits), (2, 2, 3));

    // One block on one channel of two: the other channel drains nothing.
    let (mut new, mut old) = both(two_channel(0));
    for (now, addr) in [(0, 5), (300, 7), (600, 4)] {
        let reqs = [BlockRequest::read(addr)];
        let (_, runs) = serve(&mut new, &mut old, now, &reqs, true, "one block");
        assert_eq!(runs, 1);
    }
}

#[test]
fn deep_path_on_one_channel_spans_several_bitset_words() {
    // L = 24, Z = 5: 125 blocks per phase, all on one channel.
    let cfg = one_channel(350);
    let mut new = DramSystem::new(cfg).unwrap();
    let mut old = reference::System::new(cfg, Interleave::RowRankBankColChan);
    let layout = oram_dram::SubtreeLayout::fit_to_row(&cfg, 5);
    let mut rng = Rng64::seed_from_u64(24);
    let mut now = 0;
    for access in 0..200 {
        let leaf = (1u64 << 24) + rng.below(1 << 24);
        let write = access % 3 == 2;
        let reqs: Vec<BlockRequest> = (0..=24)
            .flat_map(|level| (0..5).map(move |slot| (leaf >> (24 - level), slot)))
            .map(|(heap, slot)| BlockRequest {
                addr: layout.block_addr(heap, slot),
                is_write: write,
            })
            .collect();
        assert_eq!(reqs.len(), 125);
        let got = new.service_batch(now, &reqs);
        assert_eq!(got, old.service_batch(now, &reqs, true), "access {access}");
        assert_eq!(new.last_batch_breakdown(), old.last_batch_breakdown());
        now = *got.iter().max().unwrap();
    }
    assert_eq!(new.stats(), merged_stats(&old.channels));
    assert!(new.stats().refreshes > 0 && new.stats().row_conflicts > 0);
}

#[test]
fn shift_mask_decode_matches_div_mod() {
    let mut rng = Rng64::seed_from_u64(0xADD2);
    // Mixed: some fields take the shift path, some the exact one.
    let mixed =
        DramConfig { channels: 2, ranks: 3, banks: 8, row_bytes: 96 * 64, ..two_channel(0) };
    for cfg in [two_channel(0), one_channel(0), odd_geometry(0), mixed] {
        for interleave in [Interleave::RowRankBankColChan, Interleave::RowColRankBankChan] {
            let mapping = AddressMapping::new(&cfg, interleave);
            let check = |addr: u64| {
                let loc: Location = mapping.decode(addr);
                assert_eq!(loc, reference::decode(&cfg, interleave, addr), "{cfg:?} {addr}");
            };
            (0..20_000).for_each(check);
            for _ in 0..20_000 {
                check(rng.next_u64() >> rng.below(40));
            }
            check(u64::MAX);
        }
    }
}
