//! Rate-limited progress heartbeats for long experiment sweeps.
//!
//! A sweep of a few hundred cells can run for minutes with no output;
//! the heartbeat prints `[label: done/total cells, elapsed]` lines to
//! stderr so the terminal shows life without drowning CI logs. Output
//! is suppressed entirely when disabled (non-TTY stderr or `--quiet`),
//! and rate-limited otherwise, so workers never contend on I/O.

use std::io::IsTerminal;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum spacing between heartbeat lines.
const MIN_INTERVAL: Duration = Duration::from_millis(500);

/// A thread-safe progress reporter fed from
/// [`parallel_map_notify`](oram_sim::parallel_map_notify) completion
/// callbacks.
#[derive(Debug)]
pub struct Heartbeat {
    label: String,
    enabled: bool,
    start: Instant,
    last: Mutex<Option<Instant>>,
}

impl Heartbeat {
    /// A heartbeat labeled `label`; when `enabled` is false every
    /// [`Heartbeat::tick`] is a no-op.
    pub fn new(label: impl Into<String>, enabled: bool) -> Self {
        Heartbeat { label: label.into(), enabled, start: Instant::now(), last: Mutex::new(None) }
    }

    /// The default enablement policy: heartbeats only make sense on an
    /// interactive terminal, so report whether stderr is one.
    pub fn stderr_is_tty() -> bool {
        std::io::stderr().is_terminal()
    }

    /// Reports `done` of `total` items complete. Prints at most one line
    /// per rate-limit interval, except that the final item always prints
    /// so the last line shows the true total.
    pub fn tick(&self, done: usize, total: usize) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        {
            let mut last = self.last.lock().expect("heartbeat poisoned");
            let due = done == total || last.is_none_or(|t| now.duration_since(t) >= MIN_INTERVAL);
            if !due {
                return;
            }
            *last = Some(now);
        }
        eprintln!(
            "[{}: {done}/{total} cells, {:.1}s]",
            self.label,
            self.start.elapsed().as_secs_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_heartbeat_never_updates_state() {
        let hb = Heartbeat::new("test", false);
        hb.tick(1, 10);
        hb.tick(10, 10);
        assert!(hb.last.lock().unwrap().is_none(), "disabled ticks must not record");
    }

    #[test]
    fn enabled_heartbeat_rate_limits_middle_ticks() {
        let hb = Heartbeat::new("test", true);
        hb.tick(1, 1000);
        let first = hb.last.lock().unwrap().expect("first tick prints");
        // Immediately after, a middle tick is inside the interval: no-op.
        hb.tick(2, 1000);
        assert_eq!(*hb.last.lock().unwrap(), Some(first), "second tick was rate-limited");
        // The final tick always fires.
        hb.tick(1000, 1000);
        assert_ne!(*hb.last.lock().unwrap(), Some(first), "final tick must print");
    }
}
