//! Anomaly detection (Section II-D).
//!
//! "We define an anomaly as an abrupt and discernible change in the
//! behavior of a fixed label `v` observed in consecutive time windows."
//! The detector scores each label by `1 − persistence =
//! Dist(σ_t(v), σ_{t+1}(v))` and reports labels with unusually large
//! scores. Persistence (and robustness, against day-to-day noise) are the
//! properties that matter; uniqueness is not, so the RWR family — the
//! most persistent schemes — is the natural choice.

use rayon::prelude::*;

use comsig_core::distance::SignatureDistance;
use comsig_core::scheme::SignatureScheme;
use comsig_core::SignatureSet;
use comsig_graph::{CommGraph, NodeId};

/// An anomaly score for one label: larger = more anomalous.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyScore {
    /// The scored label.
    pub node: NodeId,
    /// `Dist(σ_t(v), σ_{t+1}(v)) ∈ [0, 1]`.
    pub score: f64,
}

/// Scores every subject by its signature change across two consecutive
/// windows, sorted by descending score (most anomalous first).
pub fn anomaly_scores(
    scheme: &dyn SignatureScheme,
    dist: &dyn SignatureDistance,
    g_t: &CommGraph,
    g_t1: &CommGraph,
    subjects: &[NodeId],
    k: usize,
) -> Vec<AnomalyScore> {
    let mut scores: Vec<AnomalyScore> = subjects
        .par_iter()
        .map(|&v| {
            let a = scheme.signature(g_t, v, k);
            let b = scheme.signature(g_t1, v, k);
            AnomalyScore {
                node: v,
                score: dist.distance(&a, &b),
            }
        })
        .collect();
    scores.sort_by(|x, y| y.score.total_cmp(&x.score).then(x.node.cmp(&y.node)));
    scores
}

/// Scores anomalies from two precomputed signature sets over the same
/// subject population, with [`anomaly_scores`]' ordering rule. This is
/// the reference sweep: the streaming detectors compute the same scores
/// from one maintained set and the signatures its advance replaced
/// ([`stream::SelfDistances`](crate::stream::SelfDistances)), and must
/// equal this function bit for bit.
pub fn anomaly_scores_from_sets(
    dist: &dyn SignatureDistance,
    sigs_t: &SignatureSet,
    sigs_t1: &SignatureSet,
) -> Vec<AnomalyScore> {
    let mut scores: Vec<AnomalyScore> = sigs_t
        .iter()
        .filter_map(|(v, a)| {
            // A subject absent from the other window cannot be scored;
            // skipping it degrades gracefully instead of panicking (the
            // streaming pipeline maintains both windows over the same
            // population, so this never drops anything in practice).
            let b = sigs_t1.get(v)?;
            Some(AnomalyScore {
                node: v,
                score: dist.distance(a, b),
            })
        })
        .collect();
    scores.sort_by(|x, y| y.score.total_cmp(&x.score).then(x.node.cmp(&y.node)));
    scores
}

/// Selection rule for turning scores into alarms.
#[derive(Debug, Clone, Copy)]
pub enum Alarm {
    /// Report the `n` highest-scoring labels.
    TopN(usize),
    /// Report labels whose score exceeds `mean + lambda · std` of the
    /// population scores.
    Sigma {
        /// Multiplier on the standard deviation.
        lambda: f64,
    },
    /// Report labels whose score exceeds a fixed threshold.
    Threshold(f64),
}

/// Applies an alarm rule to sorted scores.
pub fn alarms(scores: &[AnomalyScore], rule: Alarm) -> Vec<AnomalyScore> {
    match rule {
        Alarm::TopN(n) => scores.iter().copied().take(n).collect(),
        Alarm::Threshold(t) => scores.iter().copied().filter(|s| s.score > t).collect(),
        Alarm::Sigma { lambda } => {
            if scores.is_empty() {
                return Vec::new();
            }
            let n = scores.len() as f64;
            let mean = scores.iter().map(|s| s.score).sum::<f64>() / n;
            let var = scores
                .iter()
                .map(|s| (s.score - mean) * (s.score - mean))
                .sum::<f64>()
                / n;
            let cut = mean + lambda * var.sqrt();
            scores.iter().copied().filter(|s| s.score > cut).collect()
        }
    }
}

/// Evaluation of the detector against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyEval {
    /// AUC of the anomaly score as a classifier of ground-truth anomalies.
    pub auc: f64,
    /// Precision among the top `|truth|` scored labels ("R-precision").
    pub r_precision: f64,
    /// Number of ground-truth anomalies.
    pub positives: usize,
}

/// Scores each subject and evaluates against a ground-truth anomaly set.
/// Returns `None` when the ground truth is empty or covers every subject.
pub fn evaluate(scores: &[AnomalyScore], truth: &[NodeId]) -> Option<AnomalyEval> {
    let truth_set: rustc_hash::FxHashSet<NodeId> = truth.iter().copied().collect();
    let pos: Vec<f64> = scores
        .iter()
        .filter(|s| truth_set.contains(&s.node))
        .map(|s| 1.0 - s.score) // AUC helper expects "smaller = positive"
        .collect();
    let neg: Vec<f64> = scores
        .iter()
        .filter(|s| !truth_set.contains(&s.node))
        .map(|s| 1.0 - s.score)
        .collect();
    let auc = comsig_eval::roc::auc(&pos, &neg)?;
    let top: Vec<NodeId> = scores.iter().take(pos.len()).map(|s| s.node).collect();
    let hits = top.iter().filter(|v| truth_set.contains(v)).count();
    Some(AnomalyEval {
        auc,
        r_precision: hits as f64 / pos.len() as f64,
        positives: pos.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::Jaccard;
    use comsig_core::scheme::TopTalkers;
    use comsig_graph::GraphBuilder;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn graph(pairs: &[(usize, usize)]) -> CommGraph {
        let mut b = GraphBuilder::new();
        for &(s, d) in pairs {
            b.add_event(n(s), n(d), 1.0);
        }
        b.build(40)
    }

    /// Host 0 keeps its behaviour, host 1 changes completely.
    fn two_windows() -> (CommGraph, CommGraph) {
        let g1 = graph(&[(0, 10), (0, 11), (1, 20), (1, 21)]);
        let g2 = graph(&[(0, 10), (0, 11), (1, 30), (1, 31)]);
        (g1, g2)
    }

    #[test]
    fn changed_host_scores_highest() {
        let (g1, g2) = two_windows();
        let scores = anomaly_scores(&TopTalkers, &Jaccard, &g1, &g2, &[n(0), n(1)], 5);
        assert_eq!(scores[0].node, n(1));
        assert_eq!(scores[0].score, 1.0);
        assert_eq!(scores[1].score, 0.0);
    }

    #[test]
    fn alarm_rules() {
        let scores = vec![
            AnomalyScore {
                node: n(1),
                score: 0.9,
            },
            AnomalyScore {
                node: n(2),
                score: 0.5,
            },
            AnomalyScore {
                node: n(3),
                score: 0.1,
            },
        ];
        assert_eq!(alarms(&scores, Alarm::TopN(1)).len(), 1);
        assert_eq!(alarms(&scores, Alarm::Threshold(0.4)).len(), 2);
        let sigma_hits = alarms(&scores, Alarm::Sigma { lambda: 1.0 });
        assert_eq!(sigma_hits.len(), 1);
        assert_eq!(sigma_hits[0].node, n(1));
        assert!(alarms(&[], Alarm::Sigma { lambda: 1.0 }).is_empty());
    }

    #[test]
    fn evaluate_perfect_detector() {
        let (g1, g2) = two_windows();
        let scores = anomaly_scores(&TopTalkers, &Jaccard, &g1, &g2, &[n(0), n(1)], 5);
        let eval = evaluate(&scores, &[n(1)]).unwrap();
        assert_eq!(eval.auc, 1.0);
        assert_eq!(eval.r_precision, 1.0);
        assert_eq!(eval.positives, 1);
    }

    #[test]
    fn evaluate_empty_truth_is_none() {
        let (g1, g2) = two_windows();
        let scores = anomaly_scores(&TopTalkers, &Jaccard, &g1, &g2, &[n(0), n(1)], 5);
        assert!(evaluate(&scores, &[]).is_none());
    }
}
