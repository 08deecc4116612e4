//! The seeded input snapshot: a synthetic Internet written as CAIDA
//! as-rel text, loaded back the way a user loads a real snapshot.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sbgp_sim::Internet;
use sbgp_topology::io;
use sbgp_topology::tier::TierConfig;

use crate::util::{mix, secs};

/// ASes in the snapshot: roughly the size of the paper's 2012 graph.
pub const ASES: usize = 40_000;

/// A written snapshot and the real-world ASNs of its content providers.
pub struct Snapshot {
    pub path: PathBuf,
    pub cps: Vec<u32>,
}

/// Generate `count` synthetic Internets from `seed` (the first from `seed`
/// itself) and write them to `dir`.
pub fn write_all(dir: &Path, seed: u64, count: usize) -> Result<Vec<Snapshot>, String> {
    (0..count as u64)
        .map(|g| write(dir, if g == 0 { seed } else { mix(seed, g) }))
        .collect()
}

/// Generate the seed's synthetic Internet and write it to `dir`.
fn write(dir: &Path, seed: u64) -> Result<Snapshot, String> {
    let net = Internet::synthetic(ASES, seed);
    let path = dir.join(format!("synthetic-{ASES}-{seed}.as-rel"));
    std::fs::write(&path, io::write_relationships(&net.graph))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let cps = net
        .content_providers
        .iter()
        .map(|&v| net.graph.asn_label(v))
        .collect();
    Ok(Snapshot { path, cps })
}

/// Load the snapshot through the library's public loader.
pub fn load(snap: &Snapshot) -> Result<Internet, String> {
    Internet::from_file(&snap.path, &snap.cps).map_err(|e| format!("{}: {e}", snap.path.display()))
}

/// Wall time of the two loader layers and the size of what they built,
/// summed over the snapshots loaded.
#[derive(Default)]
pub struct LoadSpans {
    /// `io` parse plus `builder` CSR build and the acyclicity check.
    pub parse_s: f64,
    /// `tier` classification.
    pub classify_s: f64,
    pub ases: usize,
    pub edges: usize,
}

/// [`load`] re-enacted step by step with a span around each layer, added
/// to `spans`; the result is the same `Internet` `Internet::from_file`
/// builds.
pub fn load_traced(snap: &Snapshot, spans: &mut LoadSpans) -> Result<Internet, String> {
    let err = |e: sbgp_topology::TopologyError| format!("{}: {e}", snap.path.display());
    let t = Instant::now();
    let graph = io::read_relationships_file(&snap.path).map_err(err)?;
    if !graph.provider_hierarchy_is_acyclic() {
        return Err(format!(
            "{}: cyclic provider hierarchy",
            snap.path.display()
        ));
    }
    spans.parse_s += secs(t);
    let t = Instant::now();
    let config = TierConfig::with_content_provider_asns(&graph, &snap.cps).map_err(err)?;
    let name = snap
        .path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let net = Internet::from_graph(graph, &config, name);
    spans.classify_s += secs(t);
    spans.ases += net.len();
    spans.edges += net.graph.num_customer_provider_edges() + net.graph.num_peer_edges();
    Ok(net)
}
