//! Dynamic Task Discovery: sequential task insertion with automatic
//! dependency inference (the PaRSEC DTD DSL of paper §III-B, also the model
//! of StarPU/QUARK task insertion).
//!
//! Instead of wiring dependencies by hand (the PTG style of
//! [`crate::graph::TaskGraph`]), the caller inserts tasks in program order
//! declaring which data each task *reads* and *writes*; the builder infers
//! the edges:
//!
//! * read-after-write  — a reader depends on the last writer;
//! * write-after-write — a writer depends on the previous writer;
//! * write-after-read  — a writer depends on every reader since that write
//!   (anti-dependency: the in-place update must not start while readers
//!   are still consuming the old value).

use crate::graph::{TaskGraph, TaskId};
use std::collections::HashMap;

/// An opaque data handle (callers encode tiles, vectors, scalars...).
pub type DataKey = u64;

#[derive(Debug, Default, Clone)]
struct DataState {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// Builds a [`TaskGraph`] from sequentially inserted tasks.
#[derive(Debug, Default)]
pub struct DtdBuilder {
    graph: TaskGraph,
    data: HashMap<DataKey, DataState>,
}

impl DtdBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a task that reads `reads` and writes (or updates in place)
    /// `writes`. Returns the task id. A key may appear in both lists
    /// (read-modify-write); listing it under `writes` is sufficient.
    ///
    /// The previous writer of the task's *first* written datum becomes its
    /// affinity hint: an in-place update is dispatched to the worker whose
    /// cache last wrote the datum (see `TaskNode::affinity`).
    pub fn insert_task(&mut self, reads: &[DataKey], writes: &[DataKey], priority: i64) -> TaskId {
        let mut deps: Vec<TaskId> = Vec::new();
        for r in reads {
            if let Some(st) = self.data.get(r) {
                if let Some(w) = st.last_writer {
                    deps.push(w);
                }
            }
        }
        let mut affinity = None;
        for w in writes {
            if let Some(st) = self.data.get(w) {
                if let Some(prev) = st.last_writer {
                    deps.push(prev);
                    if affinity.is_none() {
                        affinity = Some(prev);
                    }
                }
                deps.extend_from_slice(&st.readers_since_write);
            }
        }
        deps.sort_unstable();
        deps.dedup();
        let id = self.graph.add_task_with_affinity(deps, priority, affinity);
        for r in reads {
            let st = self.data.entry(*r).or_default();
            st.readers_since_write.push(id);
        }
        for w in writes {
            let st = self.data.entry(*w).or_default();
            st.last_writer = Some(id);
            st.readers_since_write.clear();
        }
        id
    }

    /// Finish insertion and take the graph.
    pub fn build(self) -> TaskGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{execute, ExecOptions};

    #[test]
    fn raw_war_waw_edges() {
        let mut b = DtdBuilder::new();
        let w1 = b.insert_task(&[], &[1], 0); // write x
        let r1 = b.insert_task(&[1], &[], 0); // read x
        let r2 = b.insert_task(&[1], &[], 0); // read x
        let w2 = b.insert_task(&[], &[1], 0); // overwrite x
        let g = b.build();
        assert_eq!(g.node(r1).deps, vec![w1], "RAW");
        assert_eq!(g.node(r2).deps, vec![w1], "RAW");
        // WAW on w1 plus WAR on both readers
        assert_eq!(g.node(w2).deps, vec![w1, r1, r2]);
    }

    #[test]
    fn independent_data_has_no_edges() {
        let mut b = DtdBuilder::new();
        let a = b.insert_task(&[], &[1], 0);
        let c = b.insert_task(&[], &[2], 0);
        let g = b.build();
        assert!(g.node(a).deps.is_empty());
        assert!(g.node(c).deps.is_empty());
    }

    #[test]
    fn read_modify_write_chains() {
        let mut b = DtdBuilder::new();
        let t0 = b.insert_task(&[], &[7], 0);
        let t1 = b.insert_task(&[], &[7], 0); // in-place update
        let t2 = b.insert_task(&[], &[7], 0);
        let g = b.build();
        assert_eq!(g.node(t1).deps, vec![t0]);
        assert_eq!(g.node(t2).deps, vec![t1]);
        // in-place updates inherit the previous writer as affinity hint
        assert_eq!(g.node(t0).affinity, None);
        assert_eq!(g.node(t1).affinity, Some(t0));
        assert_eq!(g.node(t2).affinity, Some(t1));
    }

    /// Insert the tile Cholesky in sequential program order (Algorithm 1's
    /// loop nest) and check the inferred DAG enforces the same legal orders
    /// as the hand-built PTG version: execute and verify every read sees
    /// its producer.
    #[test]
    fn dtd_cholesky_matches_ptg_structure() {
        let nt = 5usize;
        let key = |i: usize, j: usize| (i * nt + j) as DataKey;
        let mut b = DtdBuilder::new();
        let mut kinds = Vec::new();
        for k in 0..nt {
            b.insert_task(&[], &[key(k, k)], 3);
            kinds.push(("potrf", k, k, k));
            for m in (k + 1)..nt {
                b.insert_task(&[key(k, k)], &[key(m, k)], 2);
                kinds.push(("trsm", m, k, k));
            }
            for m in (k + 1)..nt {
                b.insert_task(&[key(m, k)], &[key(m, m)], 1);
                kinds.push(("syrk", m, m, k));
                for n in (k + 1)..m {
                    b.insert_task(&[key(m, k), key(n, k)], &[key(m, n)], 0);
                    kinds.push(("gemm", m, n, k));
                }
            }
        }
        let g = b.build();
        // same task count as the PTG builder's closed form
        let expect = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(g.len(), expect);
        // an execution respects all inferred edges by construction;
        // verify the critical path matches the PTG one: 3(NT-1)+1
        assert_eq!(g.critical_path_len(), 3 * (nt - 1) + 1);
        let stats = execute(&g, 1, |_| (), |_, _| (), &ExecOptions::default()).unwrap();
        assert_eq!(stats.total().tasks as usize, expect);
    }
}
