//! Property-based tests over the core data structures and invariants:
//! random graphs are generated by proptest and every structural claim of the
//! engine is checked against a model or a sequential reference.

use proptest::prelude::*;
use sage_core::algo::*;
use sage_core::seq;
use sage_core::{DeltaOverlay, EdgeUpdate, GraphFilter};
use sage_graph::{build_csr, BuildOptions, CompressedCsr, Csr, EdgeList, Graph, V};
use std::collections::HashSet;
use std::sync::Arc;

/// Strategy: a random symmetric graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = sage_graph::Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as V, 0..n as V), 0..max_m)
            .prop_map(move |edges| build_csr(EdgeList::new(n, edges), BuildOptions::default()))
    })
}

/// Strategy: a random weighted symmetric graph.
fn arb_weighted(max_n: usize, max_m: usize) -> impl Strategy<Value = sage_graph::Csr> {
    ((2..max_n), any::<u64>()).prop_flat_map(move |(n, seed)| {
        proptest::collection::vec((0..n as V, 0..n as V), 1..max_m).prop_map(move |edges| {
            build_csr(
                EdgeList::new(n, edges).with_random_weights(seed),
                BuildOptions::default(),
            )
        })
    })
}

/// The edges a view exposes, rebuilt as a plain `Csr` of the same direction:
/// the input `seq::components` needs to label the view's (weak) components.
fn materialize<G: Graph>(g: &G) -> Csr {
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() as V {
        g.for_each_edge(u, |v, _| edges.push((u, v)));
    }
    let opts = BuildOptions {
        symmetrize: false,
        ..BuildOptions::default()
    };
    build_csr(EdgeList::new(g.num_vertices(), edges), opts)
}

/// The connectivity family on one view: labels partition exactly like the
/// sequential union-find (weak components when the view is asymmetric), and
/// the spanning forest is acyclic, made of the view's own edges, and has
/// `n − #components` of them — which together make it spanning.
fn check_connectivity_family<G: Graph>(g: &G, seed: u64) -> Result<(), TestCaseError> {
    let reference = materialize(g);
    let want = seq::canonicalize_labels(&seq::components(&reference));
    let got = seq::canonicalize_labels(&connectivity::connectivity(g, 0.2, seed));
    prop_assert_eq!(&got, &want);

    let forest = spanning_forest::spanning_forest(g, 0.2, seed);
    let n = g.num_vertices();
    let mut uf = seq::UnionFind::new(n);
    for &(u, v) in &forest {
        prop_assert!(
            reference.neighbors(u).contains(&v),
            "({}, {}) not an edge",
            u,
            v
        );
        prop_assert!(uf.union(u, v), "cycle through ({}, {})", u, v);
    }
    prop_assert_eq!(forest.len(), n - connectivity::num_components(&want));
    Ok(())
}

/// The peel on one (symmetric) view: the full decomposition equals
/// `seq::coreness` of the view's own edges, and the truncated peel equals it
/// clamped, for thresholds below, at and past `kmax`.
fn check_peel<G: Graph>(g: &G) -> Result<(), TestCaseError> {
    let reference = materialize(g);
    for v in 0..g.num_vertices() as V {
        prop_assert_eq!(g.degree(v), reference.degree(v), "degree of {}", v);
    }
    let want = seq::coreness(&reference);
    let kmax = want.iter().copied().max().unwrap_or(0);
    let full = kcore::kcore(g);
    prop_assert_eq!(&full.coreness, &want);
    prop_assert_eq!(full.kmax, kmax);
    for t in [0, 1, kmax, kmax + 3] {
        let bounded = kcore::kcore_bounded(g, Some(t));
        let clamped: Vec<u32> = want.iter().map(|&c| c.min(t)).collect();
        prop_assert_eq!(&bounded.coreness, &clamped, "threshold {}", t);
        prop_assert_eq!(bounded.kmax, kmax.min(t), "threshold {}", t);
        prop_assert!(bounded.rounds <= full.rounds, "threshold {}", t);
    }
    Ok(())
}

proptest! {
    // Few cases: each builds a graph big enough to leave the inline paths.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The peel over every `Graph` the engine serves it on, on inputs where
    /// one round hands the histogram more keys than it counts inline and the
    /// buckets more moves than they apply inline: `fringe` degree-4 vertices
    /// hang off a 16-regular ring of `ring` vertices, so the level-4 round
    /// peels the whole fringe (4·`fringe` keys) and decrements most of the
    /// ring (one move each). The engine's own path counters confirm it.
    #[test]
    fn peel_on_every_view_crosses_both_cutoffs(
        fringe in 9_000usize..11_000,
        ring in 4_500usize..5_500,
        noise in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300),
        salt in any::<u64>(),
    ) {
        let n = ring + fringe;
        let mut edges: Vec<(V, V)> = Vec::new();
        for b in 0..ring {
            edges.extend((1..=8).map(|d| (b as V, ((b + d) % ring) as V)));
        }
        for a in 0..fringe {
            let picks = (0..4).map(|j| sage_parallel::hash64_pair(salt, (a * 4 + j) as u64) % ring as u64);
            edges.extend(picks.map(|b| ((ring + a) as V, b as V)));
        }
        // Extra ring chords vary the upper cores from case to case.
        edges.extend(noise.iter().map(|&(u, v)| (u % ring as V, v % ring as V)));
        let g = build_csr(EdgeList::new(n, edges.clone()), BuildOptions::default());

        let (hist, batch) = (sage_parallel::histogram::path_calls(), sage_core::bucket::path_calls());
        check_peel(&g)?;
        let (hist_now, batch_now) = (sage_parallel::histogram::path_calls(), sage_core::bucket::path_calls());
        prop_assert!(hist_now.0 > hist.0 && hist_now.1 > hist.1, "histogram paths {:?} -> {:?}", hist, hist_now);
        prop_assert!(batch_now.0 > batch.0 && batch_now.1 > batch.1, "bucket paths {:?} -> {:?}", batch, batch_now);

        check_peel(&CompressedCsr::from_csr(&g, 64))?;
        let keep = |u: V, v: V| sage_parallel::hash64_pair(salt, (u.min(v) as u64) << 32 | u.max(v) as u64) % 4 != 0;
        {
            let mut filter = GraphFilter::new(&g, true);
            filter.filter_edges(|u, v, _| keep(u, v));
            check_peel(&filter)?;
        }
        let updates: Vec<EdgeUpdate> = edges
            .iter()
            .step_by(3)
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| {
                let w = (u + 1) % n as V;
                if keep(u, v) && w != v { EdgeUpdate::insert(v, w) } else { EdgeUpdate::delete(u, v) }
            })
            .collect();
        let mut overlay = DeltaOverlay::new(Arc::new(g));
        overlay.apply(&updates);
        check_peel(&overlay)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compressed_roundtrips_any_graph(g in arb_graph(120, 600)) {
        let c = CompressedCsr::from_csr(&g, 64);
        prop_assert_eq!(c.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as V {
            let mut a = Vec::new();
            g.for_each_edge(v, |u, w| a.push((u, w)));
            let mut b = Vec::new();
            c.for_each_edge(v, |u, w| b.push((u, w)));
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn filter_model_equivalence(g in arb_graph(80, 400), salt in any::<u64>()) {
        let mut filter = GraphFilter::new(&g, true);
        let pred = move |u: V, v: V| sage_parallel::hash64_pair(u as u64 ^ salt, v as u64) % 3 != 0;
        filter.filter_edges(|u, v, _| pred(u, v));
        let mut want = HashSet::new();
        for u in 0..g.num_vertices() as V {
            for &v in g.neighbors(u) {
                if pred(u, v) {
                    want.insert((u, v));
                }
            }
        }
        let mut got = HashSet::new();
        for u in 0..g.num_vertices() as V {
            filter.for_each_active(u, |v, _| { got.insert((u, v)); });
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bfs_levels_match_reference(g in arb_graph(150, 800)) {
        let (levels, _) = bfs::bfs_levels(&g, 0);
        prop_assert_eq!(levels, seq::bfs_levels(&g, 0));
    }

    #[test]
    fn wbfs_matches_dijkstra(g in arb_weighted(100, 500)) {
        prop_assert_eq!(wbfs::wbfs(&g, 0), seq::dijkstra(&g, 0));
    }

    #[test]
    fn connectivity_matches_union_find(g in arb_graph(150, 500), seed in any::<u64>()) {
        let got = seq::canonicalize_labels(&connectivity::connectivity(&g, 0.2, seed));
        let want = seq::canonicalize_labels(&seq::components(&g));
        prop_assert_eq!(got, want);
    }

    /// Connectivity and spanning forest over every `Graph` the engine serves
    /// them on. The asymmetric inputs pin the most-frequent-cluster skip to
    /// `is_symmetric()`: skipping a cluster there loses the edges only that
    /// cluster's vertices see, and the weak components come out split.
    #[test]
    fn connectivity_family_on_every_view(
        n in 2usize..120,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..400),
        salt in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let edges: Vec<(V, V)> = raw.iter().map(|&(u, v)| (u % n as V, v % n as V)).collect();
        let directed = BuildOptions { symmetrize: false, ..BuildOptions::default() };
        let asym = build_csr(EdgeList::new(n, edges.clone()), directed);
        let sym = build_csr(EdgeList::new(n, edges.clone()), BuildOptions::default());
        prop_assert!(sym.is_symmetric() && !asym.is_symmetric());
        // Drop some edges through a filter, insert/delete others through an
        // overlay; `keep` ignores direction so the symmetric views stay so.
        let keep = |u: V, v: V| sage_parallel::hash64_pair(salt, (u.min(v) as u64) << 32 | u.max(v) as u64) % 4 != 0;
        let updates: Vec<EdgeUpdate> = edges
            .iter()
            .map(|&(u, v)| if keep(u, v) { EdgeUpdate::insert(v, (u + 1) % n as V) } else { EdgeUpdate::delete(u, v) })
            .collect();
        for g in [sym, asym] {
            check_connectivity_family(&g, seed)?;
            check_connectivity_family(&CompressedCsr::from_csr(&g, 64), seed)?;
            {
                let mut filter = GraphFilter::new(&g, g.is_symmetric());
                filter.filter_edges(|u, v, _| keep(u, v));
                check_connectivity_family(&filter, seed)?;
            }
            let mut overlay = DeltaOverlay::new(Arc::new(g));
            overlay.apply(&updates);
            check_connectivity_family(&overlay, seed)?;
        }
    }

    #[test]
    fn coreness_matches_peeling(g in arb_graph(100, 600)) {
        prop_assert_eq!(kcore::kcore(&g).coreness, seq::coreness(&g));
    }

    #[test]
    fn triangles_match_reference(g in arb_graph(80, 500)) {
        prop_assert_eq!(triangle::triangle_count(&g).count, seq::triangle_count(&g));
    }

    #[test]
    fn mis_always_valid(g in arb_graph(120, 600), seed in any::<u64>()) {
        let set = mis::mis(&g, seed);
        prop_assert!(seq::check_maximal_independent_set(&g, &set).is_ok());
    }

    #[test]
    fn matching_always_valid(g in arb_graph(100, 500), seed in any::<u64>()) {
        let mate = maximal_matching::maximal_matching(&g, seed);
        prop_assert!(seq::check_maximal_matching(&g, &mate).is_ok());
    }

    #[test]
    fn coloring_always_proper(g in arb_graph(100, 500), seed in any::<u64>()) {
        let colors = coloring::coloring(&g, seed);
        prop_assert!(seq::check_coloring(&g, &colors).is_ok());
    }

    #[test]
    fn spanning_forest_is_acyclic_and_spanning(g in arb_graph(100, 400), seed in any::<u64>()) {
        let forest = spanning_forest::spanning_forest(&g, 0.2, seed);
        let n = g.num_vertices();
        let mut uf = seq::UnionFind::new(n);
        for &(u, v) in &forest {
            prop_assert!(uf.union(u, v), "cycle through ({}, {})", u, v);
        }
        let comps = connectivity::num_components(&seq::components(&g));
        prop_assert_eq!(forest.len(), n - comps);
    }

    #[test]
    fn biconnectivity_matches_hopcroft_tarjan(g in arb_graph(60, 200), seed in any::<u64>()) {
        let ht = seq::biconnected_components(&g);
        let ours = biconnectivity::biconnectivity(&g, seed);
        // Group edges by label on both sides and compare the partitions.
        let mut ht_groups: std::collections::HashMap<u32, Vec<(V, V)>> = Default::default();
        for (&e, &c) in &ht {
            ht_groups.entry(c).or_default().push(e);
        }
        let mut our_groups: std::collections::HashMap<V, Vec<(V, V)>> = Default::default();
        for u in 0..g.num_vertices() as V {
            for &v in g.neighbors(u) {
                if u < v {
                    our_groups.entry(ours.edge_label(u, v)).or_default().push((u, v));
                }
            }
        }
        let norm = |groups: Vec<Vec<(V, V)>>| -> HashSet<Vec<(V, V)>> {
            groups
                .into_iter()
                .map(|mut g| {
                    g.sort_unstable();
                    g
                })
                .collect()
        };
        prop_assert_eq!(
            norm(our_groups.into_values().collect()),
            norm(ht_groups.into_values().collect())
        );
    }

    #[test]
    fn pagerank_is_a_distribution(g in arb_graph(120, 600)) {
        let r = pagerank::pagerank(&g, 1e-9, 300);
        let sum: f64 = r.ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        prop_assert!(r.ranks.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn betweenness_matches_brandes(g in arb_graph(80, 300)) {
        let got = betweenness::betweenness(&g, 0);
        let want = seq::brandes(&g, 0);
        for i in 0..got.len() {
            prop_assert!((got[i] - want[i]).abs() < 1e-6 * (1.0 + want[i].abs()));
        }
    }

    #[test]
    fn never_writes_nvram(g in arb_graph(100, 500), seed in any::<u64>()) {
        let scope = sage_nvram::MeterScope::new();
        scope.enter(|| {
            let _ = bfs::bfs(&g, 0);
            let _ = connectivity::connectivity(&g, 0.2, seed);
            let _ = kcore::kcore(&g);
            let _ = maximal_matching::maximal_matching(&g, seed);
            let _ = triangle::triangle_count(&g);
        });
        prop_assert_eq!(scope.snapshot().graph_write, 0);
    }
}
