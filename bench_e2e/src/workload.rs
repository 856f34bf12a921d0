//! The four workloads: what is deployed, what traffic it gets, and the
//! constant rate of its open-loop phase.

/// One deployment × traffic mix. The *why* of each lives in
/// `BENCHMARK.json` and the README; this type only carries the knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain deploy, every cache off, 100 % page GETs.
    BrowseCold,
    /// Plain deploy, bean + fragment cache on, conditional GET on.
    BrowseWarm,
    /// Durable deploy with incremental cache maintenance, 90/10 mix.
    EditMix,
    /// Leader + 2 replicas behind the read-your-writes router, 90/10 mix.
    ReplicatedMix,
}

pub const ALL: [Workload; 4] = [
    Workload::BrowseCold,
    Workload::BrowseWarm,
    Workload::EditMix,
    Workload::ReplicatedMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseCold => "browse_cold",
            Workload::BrowseWarm => "browse_warm",
            Workload::EditMix => "edit_mix",
            Workload::ReplicatedMix => "replicated_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of requests that are operations (the rest are page GETs).
    pub fn write_share(self) -> f64 {
        match self {
            Workload::BrowseCold | Workload::BrowseWarm => 0.0,
            Workload::EditMix | Workload::ReplicatedMix => 0.10,
        }
    }

    /// Whether the client replays the last `ETag` per URL.
    pub fn conditional_get(self) -> bool {
        matches!(self, Workload::BrowseWarm | Workload::EditMix)
    }

    /// Whether a bean or fragment cache is deployed (so the end-of-run
    /// cached-vs-recomputed identity check applies).
    pub fn cached(self) -> bool {
        self != Workload::BrowseCold
    }

    /// Open-loop rate of the paced phase, requests per second over all
    /// connections. Frozen at half the closed-phase `req_per_s` measured on
    /// the commit that added the benchmark (2 cores, 2 clients), to two
    /// significant digits; see the README's A/A table.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::BrowseCold => 440.0,
            Workload::BrowseWarm => 690.0,
            Workload::EditMix => 370.0,
            Workload::ReplicatedMix => 380.0,
        }
    }
}
