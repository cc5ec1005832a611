//! Service-layer configuration: client stream specifications (arrival
//! process, address mix, write ratio) and the front-end parameters
//! (queue bounds, batch size, scheduler policy, coalescing).

/// Scheduling policy used to pick the next request from the per-client
/// queues at each issue slot.
///
/// All three policies select among the queue *heads* (each per-client
/// queue is FIFO, so a head is that client's oldest request).
///
/// Note an intentional structural property: because admission processes
/// arrivals in global time order and per-client arrival times are
/// monotone, the admission sequence number orders requests exactly by
/// arrival — so [`SchedPolicy::Fcfs`] and [`SchedPolicy::OldestFirst`]
/// produce identical schedules unless arrival ties occur (then
/// `OldestFirst` prefers the deeper queue while `Fcfs` keeps strict
/// admission order). [`SchedPolicy::RoundRobin`] genuinely differs: it
/// trades global age order for per-client fairness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict global order of admission (sequence numbers).
    Fcfs,
    /// Rotate over clients, taking the head of the next non-empty queue.
    RoundRobin,
    /// Minimum arrival cycle among queue heads; ties go to the client
    /// with the deepest backlog.
    OldestFirst,
}

impl SchedPolicy {
    /// Every policy, in report order.
    pub const ALL: [SchedPolicy; 3] =
        [SchedPolicy::Fcfs, SchedPolicy::RoundRobin, SchedPolicy::OldestFirst];

    /// Stable snake_case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::RoundRobin => "round_robin",
            SchedPolicy::OldestFirst => "oldest_first",
        }
    }

    /// Parses a CLI/JSON name produced by [`SchedPolicy::name`].
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(name: &str) -> Result<SchedPolicy, String> {
        SchedPolicy::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown scheduler {name:?} (fcfs, round_robin, oldest_first)"))
    }
}

/// How a client stream generates request arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Open loop: Poisson arrivals at a fixed offered rate, independent
    /// of completions. Saturates the server; overflowing requests are
    /// rejected by admission control.
    Open {
        /// Mean interarrival gap in CPU cycles.
        mean_gap_cycles: f64,
    },
    /// Closed loop: the next request is generated only after the
    /// previous one completed, plus an exponentially distributed think
    /// time. At most one request of such a client is ever queued, so
    /// closed streams never overflow their queue.
    Closed {
        /// Mean think time in CPU cycles.
        think_cycles: f64,
    },
}

/// How a client stream picks block addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressMix {
    /// Uniform over `0..domain`.
    Uniform {
        /// Address domain size in blocks.
        domain: u64,
    },
    /// Zipfian over `0..domain` (rank 0 most popular), the standard
    /// skewed multi-tenant popularity model.
    Zipfian {
        /// Address domain size in blocks (≥ 2).
        domain: u64,
        /// Skew in `(0, 1)`; YCSB default 0.99.
        theta: f64,
    },
    /// A two-level mix: with probability `hot_frac` pick uniformly from
    /// the first `hot_blocks` addresses, else uniformly from the rest.
    /// `hot_frac = 1.0` makes every request hit the hot set — the
    /// degenerate case the coalescing tests use.
    Hot {
        /// Address domain size in blocks.
        domain: u64,
        /// Size of the hot prefix (≥ 1, ≤ `domain`).
        hot_blocks: u64,
        /// Probability of drawing from the hot prefix.
        hot_frac: f64,
    },
    /// Zipfian popularity rotated by a fixed offset: rank `r` maps to
    /// address `(r + offset) mod domain`. The soak harness migrates the
    /// hot set between phases by changing `offset` while keeping the
    /// popularity *shape* (and thus the coalescing and stash pressure
    /// profile) identical — only *which* blocks are hot moves.
    ZipfianShifted {
        /// Address domain size in blocks (≥ 2).
        domain: u64,
        /// Skew in `(0, 1)`; YCSB default 0.99.
        theta: f64,
        /// Rotation applied to the ranked address (< `domain`).
        offset: u64,
    },
}

impl AddressMix {
    /// The address domain size this mix draws from.
    pub fn domain(&self) -> u64 {
        match *self {
            AddressMix::Uniform { domain }
            | AddressMix::Zipfian { domain, .. }
            | AddressMix::Hot { domain, .. }
            | AddressMix::ZipfianShifted { domain, .. } => domain,
        }
    }
}

/// One client stream: arrival process, address mix, write ratio, and
/// how many requests the stream generates before drying up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSpec {
    /// Arrival process.
    pub arrivals: ArrivalModel,
    /// Address popularity model.
    pub addresses: AddressMix,
    /// Fraction of requests that are writes, in `[0, 1]`.
    pub write_frac: f64,
    /// Requests this stream generates (0 for injection-driven tests).
    pub requests: u64,
}

/// Full service front-end configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Client streams; index is the client id.
    pub clients: Vec<ClientSpec>,
    /// Bounded per-client queue depth (≥ 1). Open-loop arrivals finding
    /// their queue full are rejected.
    pub queue_capacity: usize,
    /// Requests issued back-to-back per scheduling round before
    /// admission runs again (≥ 1).
    pub batch_size: usize,
    /// Scheduling policy over queue heads.
    pub scheduler: SchedPolicy,
    /// Merge queued same-address reads into one ORAM access
    /// (MSHR-style, strictly before the issue point).
    pub coalescing: bool,
    /// Master seed; every client derives its own generators from it.
    pub seed: u64,
}

impl ServiceConfig {
    /// A symmetric open-loop configuration: `clients` identical Poisson
    /// streams of `requests_each` Zipfian requests over `domain` blocks.
    /// The standard shape for load sweeps.
    pub fn symmetric_open(
        clients: usize,
        requests_each: u64,
        mean_gap_cycles: f64,
        domain: u64,
        seed: u64,
    ) -> Self {
        ServiceConfig {
            clients: vec![
                ClientSpec {
                    arrivals: ArrivalModel::Open { mean_gap_cycles },
                    addresses: AddressMix::Zipfian { domain, theta: 0.99 },
                    write_frac: 0.3,
                    requests: requests_each,
                };
                clients
            ],
            queue_capacity: 16,
            batch_size: 4,
            scheduler: SchedPolicy::Fcfs,
            coalescing: true,
            seed,
        }
    }

    /// Checks every parameter range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients.is_empty() {
            return Err("service needs at least one client".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be at least 1".into());
        }
        for (i, c) in self.clients.iter().enumerate() {
            if !(0.0..=1.0).contains(&c.write_frac) {
                return Err(format!("client {i}: write_frac {} outside [0, 1]", c.write_frac));
            }
            match c.arrivals {
                ArrivalModel::Open { mean_gap_cycles: g }
                | ArrivalModel::Closed { think_cycles: g } => {
                    if !(g.is_finite() && g > 0.0) {
                        return Err(format!("client {i}: mean gap {g} must be positive"));
                    }
                }
            }
            match c.addresses {
                AddressMix::Uniform { domain } => {
                    if domain == 0 {
                        return Err(format!("client {i}: uniform domain must be nonzero"));
                    }
                }
                AddressMix::Zipfian { domain, theta } => {
                    if domain < 2 {
                        return Err(format!("client {i}: zipfian domain must be at least 2"));
                    }
                    if !(theta > 0.0 && theta < 1.0) {
                        return Err(format!("client {i}: zipfian theta {theta} outside (0, 1)"));
                    }
                }
                AddressMix::Hot { domain, hot_blocks, hot_frac } => {
                    if hot_blocks == 0 || hot_blocks > domain {
                        return Err(format!(
                            "client {i}: hot_blocks {hot_blocks} outside 1..={domain}"
                        ));
                    }
                    if !(0.0..=1.0).contains(&hot_frac) {
                        return Err(format!("client {i}: hot_frac {hot_frac} outside [0, 1]"));
                    }
                }
                AddressMix::ZipfianShifted { domain, theta, offset } => {
                    if domain < 2 {
                        return Err(format!("client {i}: zipfian domain must be at least 2"));
                    }
                    if !(theta > 0.0 && theta < 1.0) {
                        return Err(format!("client {i}: zipfian theta {theta} outside (0, 1)"));
                    }
                    if offset >= domain {
                        return Err(format!(
                            "client {i}: zipf offset {offset} outside 0..{domain}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Largest address any client can generate, plus one — the working
    /// set the ORAM should be prefilled with so service runs measure
    /// steady-state serves rather than first touches.
    pub fn address_span(&self) -> u64 {
        self.clients.iter().map(|c| c.addresses.domain()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ServiceConfig {
        ServiceConfig::symmetric_open(4, 100, 500.0, 1 << 10, 7)
    }

    #[test]
    fn policy_names_round_trip() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.name()), Ok(p));
        }
        assert!(SchedPolicy::parse("lifo").is_err());
    }

    #[test]
    fn symmetric_open_validates() {
        assert_eq!(base().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut c = base();
        c.queue_capacity = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.batch_size = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients.clear();
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients[0].write_frac = 1.5;
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients[1].arrivals = ArrivalModel::Open { mean_gap_cycles: 0.0 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients[2].addresses = AddressMix::Zipfian { domain: 1, theta: 0.9 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients[3].addresses = AddressMix::Hot { domain: 8, hot_blocks: 9, hot_frac: 0.5 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients[0].addresses = AddressMix::ZipfianShifted { domain: 64, theta: 0.9, offset: 64 };
        assert!(c.validate().is_err());

        let mut c = base();
        c.clients[0].addresses = AddressMix::ZipfianShifted { domain: 64, theta: 0.9, offset: 16 };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn address_span_covers_largest_domain() {
        let mut c = base();
        c.clients[2].addresses = AddressMix::Uniform { domain: 1 << 12 };
        assert_eq!(c.address_span(), 1 << 12);
    }
}
