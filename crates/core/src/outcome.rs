//! Run records: what an execution of the algorithm produced and observed.

use crate::NetworkDecomposition;

/// Log of low-probability events during a run (Lemma 1's events `E_v`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EventLog {
    /// Number of (phase, vertex) pairs whose sampled radius exceeded the
    /// broadcast cap, i.e. `r_v ≥ k + 1` — the event `E_v` of Lemma 1. The
    /// broadcast is truncated at the cap when this happens, so the diameter
    /// guarantee holds only when this count is zero.
    pub truncation_events: usize,
    /// The largest shift sampled anywhere in the run.
    pub max_shift: f64,
}

impl EventLog {
    /// `true` when no `E_v` event occurred (the `1 − 2/c` case of Lemma 1).
    #[must_use]
    pub fn clean(&self) -> bool {
        self.truncation_events == 0
    }
}

/// Per-phase observations, the raw series behind the survival-curve
/// experiments (Claims 6 and 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTraceEntry {
    /// Phase index `t` (0-based).
    pub phase: usize,
    /// The exponential rate β in effect this phase.
    pub beta: f64,
    /// Alive vertices at the start of the phase.
    pub alive_before: usize,
    /// Vertices carved into the block `W_t` this phase.
    pub carved: usize,
    /// Clusters (connected components of `G(W_t)`) formed this phase.
    pub clusters_formed: usize,
}

/// The complete result of one decomposition run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionOutcome {
    decomposition: NetworkDecomposition,
    phases_used: usize,
    phase_budget: usize,
    trace: Vec<PhaseTraceEntry>,
    events: EventLog,
    mixed_center_clusters: usize,
}

impl DecompositionOutcome {
    pub(crate) fn new(
        decomposition: NetworkDecomposition,
        phases_used: usize,
        phase_budget: usize,
        trace: Vec<PhaseTraceEntry>,
        events: EventLog,
        mixed_center_clusters: usize,
    ) -> Self {
        DecompositionOutcome {
            decomposition,
            phases_used,
            phase_budget,
            trace,
            events,
            mixed_center_clusters,
        }
    }

    /// The decomposition that was built.
    #[must_use]
    pub fn decomposition(&self) -> &NetworkDecomposition {
        &self.decomposition
    }

    /// Consumes the outcome, yielding the decomposition.
    #[must_use]
    pub fn into_decomposition(self) -> NetworkDecomposition {
        self.decomposition
    }

    /// Phases actually executed until the graph was exhausted (or the run
    /// stopped).
    #[must_use]
    pub fn phases_used(&self) -> usize {
        self.phases_used
    }

    /// The theorem's phase budget `λ` for this run.
    #[must_use]
    pub fn phase_budget(&self) -> usize {
        self.phase_budget
    }

    /// `true` if the graph was exhausted within the theorem's phase budget —
    /// the event Corollary 7 gives probability `≥ 1 − 1/c`.
    #[must_use]
    pub fn exhausted_within_budget(&self) -> bool {
        self.decomposition.partition().is_complete() && self.phases_used <= self.phase_budget
    }

    /// Per-phase observations.
    #[must_use]
    pub fn trace(&self) -> &[PhaseTraceEntry] {
        &self.trace
    }

    /// Low-probability event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Number of clusters whose members disagreed about their center (never
    /// happens unless a broadcast was truncated; see Lemma 4).
    #[must_use]
    pub fn mixed_center_clusters(&self) -> usize {
        self.mixed_center_clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_graph::Partition;

    #[test]
    fn event_log_clean() {
        assert!(EventLog::default().clean());
        let e = EventLog {
            truncation_events: 2,
            max_shift: 9.0,
        };
        assert!(!e.clean());
    }

    #[test]
    fn outcome_accessors() {
        let mut p = Partition::new(2);
        p.push_cluster(&[0, 1]);
        let d = NetworkDecomposition::from_parts(p, vec![0], vec![0]);
        let o = DecompositionOutcome::new(
            d,
            3,
            10,
            vec![PhaseTraceEntry {
                phase: 0,
                beta: 1.0,
                alive_before: 2,
                carved: 2,
                clusters_formed: 1,
            }],
            EventLog::default(),
            0,
        );
        assert_eq!(o.phases_used(), 3);
        assert_eq!(o.phase_budget(), 10);
        assert!(o.exhausted_within_budget());
        assert_eq!(o.trace().len(), 1);
        assert_eq!(o.mixed_center_clusters(), 0);
        assert_eq!(o.decomposition().cluster_count(), 1);
        assert_eq!(o.into_decomposition().cluster_count(), 1);
    }

    #[test]
    fn over_budget_or_incomplete_is_not_exhausted() {
        let mut p = Partition::new(2);
        p.push_cluster(&[0, 1]);
        let d = NetworkDecomposition::from_parts(p, vec![0], vec![0]);
        let o = DecompositionOutcome::new(d, 11, 10, vec![], EventLog::default(), 0);
        assert!(!o.exhausted_within_budget());

        let mut p = Partition::new(2);
        p.push_cluster(&[0]);
        let d = NetworkDecomposition::from_parts(p, vec![0], vec![0]);
        let o = DecompositionOutcome::new(d, 2, 10, vec![], EventLog::default(), 0);
        assert!(!o.exhausted_within_budget());
    }
}
