//! The synthetic graph suite standing in for Table 2's inputs.
//!
//! The paper's graphs are social networks (Twitter, LiveJournal, com-Orkut)
//! and web crawls (ClueWeb, Hyperlink2014/2012) with average degrees 17–76.
//! Each suite entry is an R-MAT graph in the same degree regime, scaled by
//! `SAGE_SCALE` (vertex count `2^scale`), with the web-style graphs carried
//! in the Ligra+ byte-compressed format exactly as in the paper (§5.1.3).

use sage_graph::{build_csr, gen, BuildOptions, CompressedCsr, Csr, Graph};

/// One benchmark input: a topology in uncompressed and (optionally)
/// compressed form, plus a weighted companion for the SSSP problems.
pub struct BenchGraph {
    /// Suite name, e.g. `"clueweb-sim"`.
    pub name: &'static str,
    /// Uncompressed CSR.
    pub csr: Csr,
    /// Weighted CSR (weights uniform in `[1, log n)`, §5.1.3).
    pub weighted: Csr,
    /// Ligra+ compressed form for the web-style inputs.
    pub compressed: Option<CompressedCsr>,
}

impl BenchGraph {
    fn new(
        name: &'static str,
        scale: u32,
        edge_factor: usize,
        params: gen::RmatParams,
        compress: bool,
        seed: u64,
    ) -> Self {
        let list = gen::rmat_edges(scale, edge_factor, params, seed);
        let csr = build_csr(list, BuildOptions::default());
        let weighted = build_csr(
            gen::rmat_edges(scale, edge_factor, params, seed).with_random_weights(seed),
            BuildOptions::default(),
        );
        let compressed = compress.then(|| CompressedCsr::from_csr(&csr, 64));
        Self {
            name,
            csr,
            weighted,
            compressed,
        }
    }

    /// Directed edge count.
    pub fn m(&self) -> usize {
        self.csr.num_edges()
    }
}

/// Largest accepted `SAGE_SCALE`: the suite's largest graph has
/// `2^(scale + 2)` vertices, which must stay addressable by 32-bit ids.
const MAX_SCALE: u32 = 29;

/// The three-graph suite used by most experiments (the paper's ClueWeb /
/// Hyperlink2014 / Hyperlink2012 trio, at laptop scale).
pub struct Suite {
    /// The simulated inputs, ordered small to large.
    pub graphs: Vec<BenchGraph>,
}

impl Suite {
    /// Base scale: `SAGE_SCALE` env var (default 14 → n = 16384 for quick
    /// runs; the committed experiment logs use 17).
    ///
    /// # Panics
    /// Panics if `SAGE_SCALE` is set but not a valid scale (see
    /// [`Suite::scale_from`]); the harness binary checks it up front.
    pub fn base_scale() -> u32 {
        Self::scale_from(std::env::var("SAGE_SCALE").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse a `SAGE_SCALE` value: unset means 14, anything else must be a
    /// whole number in `1..=29`.
    pub fn scale_from(raw: Option<&str>) -> Result<u32, String> {
        let Some(raw) = raw else { return Ok(14) };
        match raw.parse::<u32>() {
            Ok(s) if (1..=MAX_SCALE).contains(&s) => Ok(s),
            _ => Err(format!(
                "SAGE_SCALE={raw:?} is not a scale: expected a whole number in 1..={MAX_SCALE}"
            )),
        }
    }

    /// Build the suite at the configured scale.
    pub fn load() -> Self {
        let s = Self::base_scale();
        Self {
            graphs: vec![
                // ClueWeb-like: web crawl, davg ≈ 76 in the paper; compressed.
                BenchGraph::new("clueweb-sim", s, 24, gen::RmatParams::web(), true, 0xC1),
                // Hyperlink2014-like: davg ≈ 72; compressed.
                BenchGraph::new(
                    "hyperlink14-sim",
                    s + 1,
                    20,
                    gen::RmatParams::web(),
                    true,
                    0x14,
                ),
                // Hyperlink2012-like: the largest; davg ≈ 63; compressed.
                BenchGraph::new(
                    "hyperlink12-sim",
                    s + 2,
                    16,
                    gen::RmatParams::web(),
                    true,
                    0x12,
                ),
            ],
        }
    }

    /// A small social-network-like graph (Twitter-sim) for quick baselines.
    pub fn social() -> BenchGraph {
        let s = Self::base_scale();
        BenchGraph::new(
            "twitter-sim",
            s,
            16,
            gen::RmatParams::default(),
            false,
            0x77,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_builds_consistent_views() {
        // Tiny scale for the test.
        let g = BenchGraph::new("t", 8, 8, gen::RmatParams::default(), true, 1);
        assert_eq!(
            g.csr.num_edges(),
            g.compressed.as_ref().unwrap().num_edges()
        );
        assert_eq!(g.csr.num_vertices(), g.weighted.num_vertices());
        assert!(g.weighted.is_weighted());
        assert!(!g.csr.is_weighted());
    }

    #[test]
    fn scale_parse_accepts_numbers_and_rejects_the_rest() {
        assert_eq!(Suite::scale_from(None), Ok(14));
        assert_eq!(Suite::scale_from(Some("8")), Ok(8));
        assert_eq!(Suite::scale_from(Some("29")), Ok(MAX_SCALE));
        for bad in ["abc", "", " 8", "8.0", "-1", "0", "30"] {
            let err = Suite::scale_from(Some(bad)).unwrap_err();
            assert!(err.contains("SAGE_SCALE"), "{bad:?}: {err}");
        }
    }
}
