//! `vertexSubset`: the frontier abstraction of Ligra (§2).
//!
//! A subset of vertices in either *sparse* (id list) or *dense* (bit per
//! vertex) form. Both fit comfortably in the PSAM's small memory: at most
//! `O(n)` words.

use crate::arena;
use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;

/// Internal representation of a subset.
enum Repr {
    Sparse(Vec<V>),
    Dense { flags: Vec<bool>, count: usize },
}

/// A subset of the vertices `0..n`.
pub struct VertexSubset {
    n: usize,
    repr: Repr,
}

impl VertexSubset {
    /// The empty subset over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// The singleton `{v}`.
    pub fn single(n: usize, v: V) -> Self {
        assert!((v as usize) < n);
        Self {
            n,
            repr: Repr::Sparse(vec![v]),
        }
    }

    /// The full vertex set.
    pub fn full(n: usize) -> Self {
        meter::aux_write(n as u64 / 64 + 1);
        Self {
            n,
            repr: Repr::Dense {
                flags: arena::fetch_flags(n, true),
                count: n,
            },
        }
    }

    /// Build from an id list (ids must be unique and `< n`).
    pub fn from_sparse(n: usize, ids: Vec<V>) -> Self {
        debug_assert!(ids.iter().all(|&v| (v as usize) < n));
        meter::aux_write(ids.len() as u64);
        Self {
            n,
            repr: Repr::Sparse(ids),
        }
    }

    /// Build from a boolean membership vector.
    pub fn from_dense(n: usize, flags: Vec<bool>) -> Self {
        assert_eq!(flags.len(), n);
        let count = par::reduce_add(0, n, |i| flags[i] as u64) as usize;
        meter::aux_write(n as u64 / 64 + 1);
        Self {
            n,
            repr: Repr::Dense { flags, count },
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => ids.len(),
            Repr::Dense { count, .. } => *count,
        }
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (`O(1)` dense, `O(len)` sparse).
    pub fn contains(&self, v: V) -> bool {
        match &self.repr {
            Repr::Sparse(ids) => ids.contains(&v),
            Repr::Dense { flags, .. } => flags[v as usize],
        }
    }

    /// Sum of out-degrees of the members — the quantity Ligra's direction
    /// optimization thresholds on (§4.1.1).
    pub fn out_degree_sum(&self, g: &impl Graph) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => {
                par::reduce_add(0, ids.len(), |i| g.degree(ids[i]) as u64) as usize
            }
            Repr::Dense { flags, .. } => par::reduce_add(0, self.n, |v| {
                if flags[v] {
                    g.degree(v as V) as u64
                } else {
                    0
                }
            }) as usize,
        }
    }

    /// Member ids as a slice, converting to sparse if needed.
    pub fn as_sparse(&mut self) -> &[V] {
        if let Repr::Dense { flags, .. } = &self.repr {
            let ids = par::pack_index(self.n, |i| flags[i]);
            meter::aux_read(self.n as u64 / 64 + 1);
            meter::aux_write(ids.len() as u64);
            if let Repr::Dense { flags, .. } = std::mem::replace(&mut self.repr, Repr::Sparse(ids))
            {
                arena::release_flags(flags);
            }
        }
        match &self.repr {
            Repr::Sparse(ids) => ids,
            Repr::Dense { .. } => unreachable!(),
        }
    }

    /// Membership flags, converting to dense if needed.
    pub fn as_dense(&mut self) -> &[bool] {
        if let Repr::Sparse(ids) = &self.repr {
            let count = ids.len();
            let mut flags = arena::fetch_flags(self.n, false);
            let fp = par::SendPtr(flags.as_mut_ptr());
            let ids_ref: &[V] = ids;
            // SAFETY: ids are unique, so writes are disjoint.
            par::par_for(0, ids_ref.len(), |i| unsafe {
                *fp.add(ids_ref[i] as usize) = true;
            });
            meter::aux_write(self.n as u64 / 64 + 1 + count as u64);
            self.repr = Repr::Dense { flags, count };
        }
        match &self.repr {
            Repr::Dense { flags, .. } => flags,
            Repr::Sparse(_) => unreachable!(),
        }
    }

    /// Add `ids` — unique, `< n`, and none already a member — keeping the
    /// current representation: `O(|ids|)` either way, where rebuilding via
    /// [`Self::to_vec`] + [`Self::from_sparse`] costs `O(n)` on a dense set.
    pub(crate) fn add_disjoint(&mut self, ids: &[V]) {
        debug_assert!(ids.iter().all(|&v| (v as usize) < self.n));
        meter::aux_write(ids.len() as u64);
        match &mut self.repr {
            Repr::Sparse(members) => members.extend_from_slice(ids),
            Repr::Dense { flags, count } => {
                for &v in ids {
                    flags[v as usize] = true;
                }
                *count += ids.len();
            }
        }
    }

    /// Copy out the member ids (sorted when converted from dense).
    pub fn to_vec(&self) -> Vec<V> {
        match &self.repr {
            Repr::Sparse(ids) => ids.clone(),
            Repr::Dense { flags, .. } => par::pack_index(self.n, |i| flags[i]),
        }
    }

    /// Apply `f` to every member in parallel.
    pub fn for_each(&self, f: impl Fn(V) + Sync) {
        match &self.repr {
            Repr::Sparse(ids) => par::par_for(0, ids.len(), |i| f(ids[i])),
            Repr::Dense { flags, .. } => par::par_for(0, self.n, |v| {
                if flags[v] {
                    f(v as V)
                }
            }),
        }
    }
}

impl Drop for VertexSubset {
    /// Recycle the dense flag buffer into the current task's scratch pools
    /// (the innermost [`crate::QueryArena`], or the shared fallback pool).
    /// A subset dropped outside the arena it was built in simply donates its
    /// buffer to whichever pool is current — buffers carry no state between
    /// fetches beyond their capacity.
    fn drop(&mut self) {
        if let Repr::Dense { flags, .. } = &mut self.repr {
            arena::release_flags(std::mem::take(flags));
        }
    }
}

impl std::fmt::Debug for VertexSubset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VertexSubset(n={}, len={}, {})",
            self.n,
            self.len(),
            match self.repr {
                Repr::Dense { .. } => "dense",
                Repr::Sparse(_) => "sparse",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_graph::gen;

    #[test]
    fn construction_and_len() {
        let s = VertexSubset::empty(10);
        assert!(s.is_empty());
        let s = VertexSubset::single(10, 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
        let s = VertexSubset::full(8);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn sparse_dense_roundtrip() {
        let mut s = VertexSubset::from_sparse(100, vec![5, 50, 99]);
        assert!(matches!(s.repr, Repr::Sparse(_)));
        let flags = s.as_dense();
        assert!(flags[5] && flags[50] && flags[99]);
        assert_eq!(s.len(), 3);
        let ids = s.as_sparse();
        assert_eq!(ids, &[5, 50, 99]);
    }

    #[test]
    fn dense_count_matches() {
        let flags: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let expect = flags.iter().filter(|&&b| b).count();
        let s = VertexSubset::from_dense(64, flags);
        assert_eq!(s.len(), expect);
    }

    #[test]
    fn out_degree_sum_both_reprs() {
        let g = gen::star(10); // deg(0)=9, deg(i)=1
        let mut s = VertexSubset::from_sparse(10, vec![0, 1]);
        assert_eq!(s.out_degree_sum(&g), 10);
        s.as_dense();
        assert_eq!(s.out_degree_sum(&g), 10);
    }

    #[test]
    fn for_each_visits_members() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut s = VertexSubset::from_sparse(100, vec![1, 2, 3]);
        let sum = AtomicU64::new(0);
        s.for_each(|v| {
            sum.fetch_add(v as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
        s.as_dense();
        let sum2 = AtomicU64::new(0);
        s.for_each(|v| {
            sum2.fetch_add(v as u64, Ordering::Relaxed);
        });
        assert_eq!(sum2.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn to_vec_sorted_from_dense() {
        let mut s = VertexSubset::from_sparse(50, vec![40, 10, 30]);
        s.as_dense();
        assert_eq!(s.to_vec(), vec![10, 30, 40]);
    }
}
