//! The AR-filter case study (paper §4, Figure 5, Table 1).
//!
//! "The task graph for the specification consists of 6 tasks … Tasks A and B
//! show the internal structures of the filter tasks. Tasks T1, T3, & T4 have
//! a structure like Task A, but differ in their bit-widths … Task T1 has
//! three design points, tasks T3 & T4 have two design points each, and tasks
//! T2 and T5 have one design point each."
//!
//! The paper omits the design-point values and the exact edge list ("due to
//! space limitation"), so this module *reconstructs* them: the two task
//! templates are built as operation dataflow graphs (template A: a 4-mul /
//! 2-add lattice stage; template B: a 2-mul / 2-add stage), design points
//! are synthesized with the `rtr-hls` estimator at per-task bit-widths, and
//! the design-point counts are capped to the paper's 3/1/2/2/1/1. What the
//! paper *claims* about this case study — that the iterative procedure's
//! final latency equals the optimal ILP latency — is reproduced by
//! `reproduce table1` in `rtr-bench` regardless of the exact values.

use rtr_graph::{GraphError, TaskGraph, TaskGraphBuilder};
use rtr_hls::{synthesize_task, BehavioralTask, EstimatorOptions, FuLibrary, HlsError, OpKind};

/// Error type for AR-filter construction (HLS or graph assembly).
#[derive(Debug)]
pub enum ArError {
    /// Design-point synthesis failed.
    Hls(HlsError),
    /// Graph assembly failed.
    Graph(GraphError),
}

impl std::fmt::Display for ArError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArError::Hls(e) => write!(f, "hls: {e}"),
            ArError::Graph(e) => write!(f, "graph: {e}"),
        }
    }
}

impl std::error::Error for ArError {}

impl From<HlsError> for ArError {
    fn from(e: HlsError) -> Self {
        ArError::Hls(e)
    }
}

impl From<GraphError> for ArError {
    fn from(e: GraphError) -> Self {
        ArError::Graph(e)
    }
}

/// Template A of Figure 5: a lattice-filter stage with four multiplies
/// feeding two adds.
pub fn template_a(name: &str, width: u32) -> BehavioralTask {
    let mut t = BehavioralTask::new(name);
    let m: Vec<_> = (0..4).map(|_| t.add_op(OpKind::Mul, width, &[])).collect();
    t.add_op(OpKind::Add, width, &[m[0], m[1]]);
    t.add_op(OpKind::Add, width, &[m[2], m[3]]);
    t
}

/// Template B of Figure 5: a lighter stage with two multiplies feeding two
/// chained adds.
pub fn template_b(name: &str, width: u32) -> BehavioralTask {
    let mut t = BehavioralTask::new(name);
    let m0 = t.add_op(OpKind::Mul, width, &[]);
    let m1 = t.add_op(OpKind::Mul, width, &[]);
    let a0 = t.add_op(OpKind::Add, width, &[m0, m1]);
    t.add_op(OpKind::Add, width, &[a0]);
    t
}

/// Builds the 6-task AR-filter task graph with HLS-synthesized design
/// points.
///
/// # Errors
///
/// Returns an [`ArError`] if synthesis or graph assembly fails (cannot
/// happen for the fixed templates; the error type exists because the
/// estimator API is fallible).
///
/// # Examples
///
/// ```
/// let ar = rtr_workloads::ar::ar_filter().expect("static construction");
/// assert_eq!(ar.task_count(), 6);
/// let t1 = ar.task(ar.task_by_name("T1").unwrap());
/// assert_eq!(t1.design_points().len(), 3);
/// ```
pub fn ar_filter() -> Result<TaskGraph, ArError> {
    let lib = FuLibrary::xc4000_style();
    let opts = |max_points: usize| EstimatorOptions { max_points, ..Default::default() };

    let mut b = TaskGraphBuilder::new();
    // (template, bit width, design point cap, env_in, env_out)
    let t1 = b.add_prepared_task(synthesize_task(&template_a("T1", 16), &lib, &opts(3), 4, 0)?);
    let t2 = b.add_prepared_task(synthesize_task(&template_b("T2", 8), &lib, &opts(1), 0, 0)?);
    let t3 = b.add_prepared_task(synthesize_task(&template_a("T3", 12), &lib, &opts(2), 0, 0)?);
    let t4 = b.add_prepared_task(synthesize_task(&template_a("T4", 14), &lib, &opts(2), 0, 0)?);
    let t5 = b.add_prepared_task(synthesize_task(&template_b("T5", 8), &lib, &opts(1), 0, 0)?);
    let t6 = b.add_prepared_task(synthesize_task(&template_b("T6", 10), &lib, &opts(1), 0, 2)?);

    b.add_edge(t1, t2, 2)?;
    b.add_edge(t1, t3, 2)?;
    b.add_edge(t2, t4, 2)?;
    b.add_edge(t3, t4, 2)?;
    b.add_edge(t3, t5, 2)?;
    b.add_edge(t4, t6, 2)?;
    b.add_edge(t5, t6, 2)?;
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_tasks_with_paper_design_point_counts() {
        let g = ar_filter().unwrap();
        assert_eq!(g.task_count(), 6);
        let counts: Vec<(String, usize)> =
            g.tasks().iter().map(|t| (t.name().to_owned(), t.design_points().len())).collect();
        let by_name = |n: &str| counts.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(by_name("T1"), 3);
        assert_eq!(by_name("T2"), 1);
        assert_eq!(by_name("T3"), 2);
        assert_eq!(by_name("T4"), 2);
        assert_eq!(by_name("T5"), 1);
        assert_eq!(by_name("T6"), 1);
    }

    #[test]
    fn graph_is_single_source_single_sink() {
        let g = ar_filter().unwrap();
        assert_eq!(g.roots().len(), 1);
        assert_eq!(g.leaves().len(), 1);
        assert_eq!(g.task(g.roots()[0]).name(), "T1");
        assert_eq!(g.task(g.leaves()[0]).name(), "T6");
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn wider_tasks_have_larger_design_points() {
        let g = ar_filter().unwrap();
        let t1 = g.task(g.task_by_name("T1").unwrap()); // 16 bit, template A
        let t3 = g.task(g.task_by_name("T3").unwrap()); // 12 bit, template A
        assert!(t1.min_area_point().area() > t3.min_area_point().area());
    }

    #[test]
    fn design_points_trade_area_for_latency() {
        let g = ar_filter().unwrap();
        let t1 = g.task(g.task_by_name("T1").unwrap());
        let dps = t1.design_points();
        for w in dps.windows(2) {
            assert!(w[0].area() < w[1].area());
            assert!(w[0].latency() > w[1].latency());
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = ar_filter().unwrap();
        let b = ar_filter().unwrap();
        assert_eq!(a, b);
    }
}
