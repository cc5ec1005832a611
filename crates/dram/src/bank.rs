//! Per-bank state machine enforcing the JEDEC core timing constraints.
//!
//! Each bank tracks its open row and the timestamps of its last commands;
//! [`Bank::earliest`] answers "when may command C legally issue here",
//! and [`Bank::issue`] commits a command. Rank-level constraints (tRRD,
//! tFAW, bus contention) live in the channel controller.

use crate::config::DramConfig;

/// DRAM command kinds relevant to the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Open a row.
    Activate,
    /// Close the open row.
    Precharge,
    /// Column read burst.
    Read,
    /// Column write burst.
    Write,
}

/// Current row state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// No row open.
    Idle,
    /// The given row is open in the row buffer.
    Open(u64),
}

/// One DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    state: RowState,
    last_activate: i64,
    last_precharge: i64,
    /// Cycle when the most recent read burst's data finishes.
    last_read_end: i64,
    /// Cycle when the most recent write burst's data finishes.
    last_write_end: i64,
    /// Earliest cycle a precharge may issue (from tRAS / tWR / tRTP).
    precharge_ready: i64,
}

impl Bank {
    /// A bank with no row open and no timing history.
    pub fn new() -> Self {
        const LONG_AGO: i64 = -100_000;
        Bank {
            state: RowState::Idle,
            last_activate: LONG_AGO,
            last_precharge: LONG_AGO,
            last_read_end: LONG_AGO,
            last_write_end: LONG_AGO,
            precharge_ready: 0,
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> RowState {
        self.state
    }

    /// Whether `row` is currently open.
    pub fn is_open(&self, row: u64) -> bool {
        self.state == RowState::Open(row)
    }

    /// Earliest cycle at which `cmd` may issue on this bank, not counting
    /// rank/channel constraints.
    pub fn earliest(&self, cmd: Command, cfg: &DramConfig) -> i64 {
        match cmd {
            Command::Activate => self.last_precharge + cfg.trp as i64,
            Command::Precharge => self.precharge_ready,
            Command::Read | Command::Write => self.last_activate + cfg.trcd as i64,
        }
    }

    /// Commits `cmd` at cycle `at`, updating the bank state.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the command violates this bank's own
    /// timing or state (the controller must consult [`Bank::earliest`]).
    pub fn issue(&mut self, cmd: Command, at: i64, row: u64, cfg: &DramConfig) {
        debug_assert!(at >= self.earliest(cmd, cfg), "{cmd:?} too early");
        match cmd {
            Command::Activate => {
                debug_assert_eq!(self.state, RowState::Idle, "activate on open bank");
                self.state = RowState::Open(row);
                self.last_activate = at;
                self.precharge_ready = at + cfg.tras as i64;
            }
            Command::Precharge => {
                debug_assert_ne!(self.state, RowState::Idle, "precharge on idle bank");
                self.state = RowState::Idle;
                self.last_precharge = at;
            }
            Command::Read => {
                debug_assert!(self.is_open(row), "read on wrong/closed row");
                let data_end = at + (cfg.cl + cfg.burst_cycles()) as i64;
                self.last_read_end = data_end;
                self.precharge_ready = self.precharge_ready.max(at + cfg.trtp as i64);
            }
            Command::Write => {
                debug_assert!(self.is_open(row), "write on wrong/closed row");
                let data_end = at + (cfg.cwl + cfg.burst_cycles()) as i64;
                self.last_write_end = data_end;
                self.precharge_ready = self.precharge_ready.max(data_end + cfg.twr as i64);
            }
        }
    }

    /// Forces the bank idle and unavailable until `cycle` (refresh window):
    /// the earliest subsequent activate is exactly `cycle`.
    pub fn stall_until(&mut self, cycle: i64, cfg: &DramConfig) {
        self.state = RowState::Idle;
        self.last_precharge = self.last_precharge.max(cycle - cfg.trp as i64);
        self.precharge_ready = self.precharge_ready.max(cycle);
    }

    /// Cycle at which the row opened by the most recent activate becomes
    /// column-accessible (activate time + tRCD). The channel's cycle
    /// attribution uses this as the end of the row-operation interval.
    pub fn row_ready(&self, cfg: &DramConfig) -> i64 {
        self.last_activate + cfg.trcd as i64
    }

    /// Cycle at which the last read's data completes.
    pub fn last_read_end(&self) -> i64 {
        self.last_read_end
    }

    /// Cycle at which the last write's data completes.
    pub fn last_write_end(&self) -> i64 {
        self.last_write_end
    }
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr3_1333()
    }

    #[test]
    fn fresh_bank_is_idle_and_ready() {
        let b = Bank::new();
        assert_eq!(b.state(), RowState::Idle);
        assert!(b.earliest(Command::Activate, &cfg()) <= 0);
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let c = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 0, 5, &c);
        assert!(b.is_open(5));
        assert_eq!(b.earliest(Command::Read, &c), c.trcd as i64);
        b.issue(Command::Read, c.trcd as i64, 5, &c);
        assert_eq!(b.last_read_end(), (c.trcd + c.cl + c.burst_cycles()) as i64);
    }

    #[test]
    fn precharge_waits_for_tras() {
        let c = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 10, 1, &c);
        assert_eq!(b.earliest(Command::Precharge, &c), 10 + c.tras as i64);
    }

    #[test]
    fn write_recovery_extends_precharge() {
        let c = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 0, 1, &c);
        let w_at = c.trcd as i64;
        b.issue(Command::Write, w_at, 1, &c);
        let data_end = w_at + (c.cwl + c.burst_cycles()) as i64;
        assert_eq!(b.earliest(Command::Precharge, &c), data_end + c.twr as i64);
    }

    #[test]
    fn precharge_then_activate_respects_trp() {
        let c = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 0, 1, &c);
        let pre_at = b.earliest(Command::Precharge, &c);
        b.issue(Command::Precharge, pre_at, 0, &c);
        assert_eq!(b.state(), RowState::Idle);
        assert_eq!(b.earliest(Command::Activate, &c), pre_at + c.trp as i64);
    }

    #[test]
    fn row_hit_needs_no_new_activate() {
        let c = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 0, 7, &c);
        b.issue(Command::Read, c.trcd as i64, 7, &c);
        // A second read to the same row may go as soon as tRCD from the
        // original activate (bus constraints handled elsewhere).
        assert!(b.is_open(7));
        b.issue(Command::Read, (c.trcd + c.tccd) as i64, 7, &c);
    }
}
