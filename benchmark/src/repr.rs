//! The three representations under test behind one pair of traits, so every
//! section is written once. [`Repr`] adds "encode a plain CSR and flush it"
//! to the product's own `Publishable` (which already knows how to rebuild,
//! price, flush and reload each representation); [`Served`] is the request
//! surface `GraphService` and `ShardedService` share in everything but type.

use crate::spec;
use sage_core::EdgeUpdate;
use sage_graph::io;
use sage_graph::{CompressedCsr, Csr, ShardRepr, Sharded, ShardedCsr};
use sage_serve::{
    GraphService, PublishError, PublishReport, Publishable, Query, ServiceBuilder, ServiceStats,
    ShardedService, Snapshot, Ticket,
};
use std::path::{Path, PathBuf};

/// A snapshot representation the benchmark can build, map and serve.
pub trait Repr: Publishable {
    /// The service type that serves it.
    type Service: Served<Graph = Self>;

    /// Encode `csr` in this representation and write it to `path`.
    fn write_from(csr: &Csr, path: &Path) -> std::io::Result<()>;

    /// Start a service over `snapshot`.
    fn serve(builder: ServiceBuilder, snapshot: Snapshot<Self>) -> Self::Service;

    /// Every file a flush to `path` creates (for cleaning up old epochs).
    fn files(&self, path: &Path) -> Vec<PathBuf> {
        vec![path.to_path_buf()]
    }

    /// File words of the parts of this snapshot that hold an endpoint of
    /// `updates` — what a publish that rewrote only what changed would have
    /// to flush (ROADMAP's O(delta) bound). A monolithic file is one part.
    fn touched_words(&self, _updates: &[EdgeUpdate]) -> u64 {
        self.flush_words()
    }
}

impl Repr for Csr {
    type Service = GraphService<Csr>;

    fn write_from(csr: &Csr, path: &Path) -> std::io::Result<()> {
        io::write_csr(csr, path)
    }

    fn serve(builder: ServiceBuilder, snapshot: Snapshot<Self>) -> Self::Service {
        builder.start(snapshot)
    }
}

impl Repr for CompressedCsr {
    type Service = GraphService<CompressedCsr>;

    fn write_from(csr: &Csr, path: &Path) -> std::io::Result<()> {
        io::write_compressed(&CompressedCsr::from_csr(csr, spec::COMPRESS_BLOCK), path)
    }

    fn serve(builder: ServiceBuilder, snapshot: Snapshot<Self>) -> Self::Service {
        builder.start(snapshot)
    }
}

impl Repr for ShardedCsr {
    type Service = ShardedService;

    fn write_from(csr: &Csr, path: &Path) -> std::io::Result<()> {
        io::write_sharded(&ShardedCsr::from_csr(csr, spec::SHARDS), path)
    }

    fn serve(builder: ServiceBuilder, snapshot: Snapshot<Self>) -> Self::Service {
        builder.start_sharded(snapshot)
    }

    fn files(&self, path: &Path) -> Vec<PathBuf> {
        let mut files = vec![path.to_path_buf()];
        files.extend((0..self.num_shards()).map(|i| io::shard_path(path, i)));
        files
    }

    fn touched_words(&self, updates: &[EdgeUpdate]) -> u64 {
        let mut touched = vec![false; self.num_shards()];
        for up in updates {
            let (EdgeUpdate::Insert { u, v, .. } | EdgeUpdate::Delete { u, v }) = *up;
            touched[self.shard_of(u)] = true;
            touched[self.shard_of(v)] = true;
        }
        (0..self.num_shards())
            .filter(|&s| touched[s])
            .map(|s| match self.shard(s) {
                ShardRepr::Plain(c) => io::csr_file_words(c),
                ShardRepr::Compressed(c) => io::compressed_file_words(c),
            })
            .sum()
    }
}

/// The request surface of a running service.
pub trait Served: Sync {
    /// The representation it serves.
    type Graph: Repr;

    /// Enqueue a query.
    fn submit(&self, query: Query) -> Ticket;

    /// Run the whole ingestion pipeline for one update batch.
    fn publish_updates(
        &self,
        updates: &[EdgeUpdate],
        path: &Path,
    ) -> Result<PublishReport, PublishError>;

    /// Serving counters.
    fn stats(&self) -> ServiceStats;

    /// The snapshot currently served.
    fn snapshot(&self) -> Snapshot<Self::Graph>;
}

macro_rules! served {
    ($service:ty, $graph:ty) => {
        impl Served for $service {
            type Graph = $graph;

            fn submit(&self, query: Query) -> Ticket {
                <$service>::submit(self, query)
            }

            fn publish_updates(
                &self,
                updates: &[EdgeUpdate],
                path: &Path,
            ) -> Result<PublishReport, PublishError> {
                <$service>::publish_updates(self, updates, path)
            }

            fn stats(&self) -> ServiceStats {
                <$service>::stats(self)
            }

            fn snapshot(&self) -> Snapshot<$graph> {
                <$service>::snapshot(self)
            }
        }
    };
}

served!(GraphService<Csr>, Csr);
served!(GraphService<CompressedCsr>, CompressedCsr);
served!(ShardedService, ShardedCsr);
