//! Set-up: everything between `--seed` and a warm, verified, mapped snapshot.
//!
//! `setup_s` times the whole of [`setup`] — generate, build, encode, write,
//! map, oracle, warm-up — and a run repeats it (`Plan::setup_reps`) with
//! nothing cached between repetitions, so work a later change moves out of
//! the timed sections and into set-up shows up here.

use crate::analytics;
use crate::oracle::{Oracle, Tally};
use crate::repr::Repr;
use crate::spec::Workload;
use crate::trace::Tracer;
use sage_graph::{Csr, Graph};
use sage_serve::Snapshot;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What the sections of a run share.
pub struct Context<'a, R: Repr> {
    /// The run's seed.
    pub seed: u64,
    /// Scratch directory of this run (inside the checkout).
    pub dir: &'a Path,
    /// The heap-resident plain CSR the snapshot was encoded from: base of
    /// the oracle, of update generation and of the publish replay.
    pub csr: Arc<Csr>,
    /// The mapped (`Placement::Nvram`) snapshot under test.
    pub snapshot: Snapshot<R>,
    /// The snapshot's file.
    pub path: PathBuf,
    /// Sequential references.
    pub oracle: Oracle,
    /// Check counter.
    pub tally: &'a Tally,
    /// Span recorder.
    pub tracer: &'a Tracer,
}

/// Wall-clock seconds of each set-up phase (the traced pass reports them as
/// `graph.gen_s` / `graph.write_s` / `graph.load_ms`).
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// `gen::rmat`: sample, symmetrize, sort, deduplicate, pack.
    pub gen_s: f64,
    /// Encode in the representation and write the file(s).
    pub write_s: f64,
    /// Map the file(s) back read-only, validating on the way.
    pub load_s: f64,
    /// Sequential references.
    pub oracle_s: f64,
    /// One verified analytics round on the mapped snapshot.
    pub warmup_s: f64,
    /// All of the above.
    pub total_s: f64,
}

impl std::fmt::Display for SetupTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} s = generate {:.3} + write {:.3} + map {:.3} + oracle {:.3} + warm-up {:.3}",
            self.total_s, self.gen_s, self.write_s, self.load_s, self.oracle_s, self.warmup_s
        )
    }
}

/// Build the context of a run from scratch.
pub fn setup<'a, R: Repr>(
    w: &Workload,
    scale: u32,
    seed: u64,
    dir: &'a Path,
    tally: &'a Tally,
    tracer: &'a Tracer,
) -> std::io::Result<(Context<'a, R>, SetupTimes)> {
    let mut t = SetupTimes::default();
    let (result, total_s) = tracer.time("setup", None, |span| -> std::io::Result<_> {
        let (csr, gen_s) = tracer.time("setup.generate", span, |_| {
            crate::inputs::graph(w, scale, seed)
        });
        let path = dir.join("snapshot");
        let (written, write_s) = tracer.time("setup.write", span, |_| R::write_from(&csr, &path));
        written?;
        let (loaded, load_s) = tracer.time("setup.map", span, |_| R::reload(&path));
        let snapshot = Snapshot::new(loaded?);
        let (oracle, oracle_s) = tracer.time("setup.oracle", span, |_| Oracle::new(&csr, seed));
        t = SetupTimes {
            gen_s,
            write_s,
            load_s,
            oracle_s,
            ..t
        };
        Ok(Context {
            seed,
            dir,
            csr: Arc::new(csr),
            snapshot,
            path,
            oracle,
            tally,
            tracer,
        })
    });
    let ctx = result?;
    assert_eq!(ctx.snapshot.num_edges(), ctx.csr.num_edges());
    let (_, warmup_s) = tracer.time("setup.warmup", None, |span| {
        analytics::round(&ctx, span);
    });
    t.warmup_s = warmup_s;
    t.total_s = total_s + warmup_s;
    Ok((ctx, t))
}
