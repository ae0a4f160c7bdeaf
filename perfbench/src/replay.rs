//! Layer calls a traced run replays on the workload's own data when the
//! workload's end-to-end path does not make them itself, so that every
//! per-layer metric is measured on every workload.

use crate::spans::Spans;
use mcdvfs_sim::{CharacterizationGrid, EvalPlan, System};
use mcdvfs_store::SnapshotStore;
use std::path::Path;

/// Compiles the evaluation plan of every grid the workload characterized,
/// `rounds` times each (`sim.plan_compile`).
pub fn plan_compile(
    system: &System,
    grids: &[&CharacterizationGrid],
    spans: &mut Spans,
    rounds: usize,
) {
    for _ in 0..rounds {
        for g in grids {
            let (plan, _) = spans.timed("sim.plan_compile", 0, 0, || {
                EvalPlan::compile(system, g.grid())
            });
            std::hint::black_box(plan);
        }
    }
}

/// Persists every grid into a fresh store under `dir`, then loads and
/// rehydrates each one `rounds` times (`store.load`,
/// `store.from_snapshot`). Returns the bytes one load of every grid
/// reads.
///
/// # Errors
///
/// Reports a store failure, or a grid that does not come back equal.
pub fn store_roundtrip(
    grids: &[&CharacterizationGrid],
    dir: &Path,
    spans: &mut Spans,
    rounds: usize,
) -> Result<u64, String> {
    let store = SnapshotStore::open(dir).map_err(|e| format!("opening store: {e}"))?;
    for g in grids {
        store
            .persist(&g.to_snapshot())
            .map_err(|e| format!("persisting {}: {e}", g.name()))?;
    }
    let mut bytes = 0;
    for round in 0..rounds {
        for g in grids {
            let fp = g.fingerprint();
            let (loaded, _) = spans.timed("store.load", 0, 0, || store.load(fp));
            let loaded = loaded
                .map_err(|e| format!("loading {}: {e}", g.name()))?
                .ok_or_else(|| format!("snapshot of {} vanished", g.name()))?;
            if round == 0 {
                bytes += loaded.bytes_read;
            }
            let (back, _) = spans.timed("store.from_snapshot", 0, 0, || {
                CharacterizationGrid::from_snapshot(loaded.snapshot)
            });
            let back = back.map_err(|e| format!("rehydrating {}: {e}", g.name()))?;
            if back != **g {
                return Err(format!("{} did not survive a store round trip", g.name()));
            }
        }
    }
    Ok(bytes)
}
