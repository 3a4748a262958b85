//! Tenants: named, immutable, `Arc`-shared trace indexes.
//!
//! A tenant owns one loaded [`TraceIndex`] — the columnar trace the
//! batch harness queries, kept resident for the lifetime of a server
//! process. A packed `.hpct` source opens straight into it; no rows are
//! kept beside it.
//! Request handlers clone an `Arc<Tenant>` out of the registry and
//! answer from the shared index; reload builds a *new* tenant (next
//! generation) off to the side and swaps the `Arc` under a brief write
//! lock, so in-flight readers keep their old index alive until they
//! finish — reload never blocks them and never mutates shared state.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use hpcfail_records::io::open_trace;
use hpcfail_records::{FailureTrace, IngestPolicy, TraceIndex};

/// Where a tenant's records come from — consulted again on reload.
#[derive(Debug, Clone)]
pub enum TenantSource {
    /// A trace file — native CSV, LANL export or packed `.hpct`, told
    /// apart by the one trace loader (re-read on reload).
    File(PathBuf),
    /// An in-memory trace (re-indexed from the shared copy on reload);
    /// used by tests and the load harness.
    Static(Arc<FailureTrace>),
}

/// One loaded tenant: an immutable generation of one named trace.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant name (the `<trace>` path segment).
    pub name: String,
    /// Monotonic generation, starting at 1; bumps on every reload.
    pub generation: u64,
    /// Where the records came from.
    pub source: TenantSource,
    index: TraceIndex,
}

impl Tenant {
    /// The shared, immutable index of this generation.
    pub fn index(&self) -> &TraceIndex {
        &self.index
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// Errors from loading or reloading a tenant.
#[derive(Debug)]
pub enum TenantError {
    /// The named tenant does not exist.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// Reading the source failed.
    Load(String),
    /// A reload parsed to an empty trace while the live generation has
    /// records — refused, so a truncated/corrupted source file can
    /// never wipe a serving tenant.
    EmptyReload {
        /// The tenant whose reload was refused.
        name: String,
        /// Records in the generation kept serving.
        live_records: usize,
    },
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::UnknownTenant(name) => write!(f, "no such trace {name:?}"),
            TenantError::DuplicateTenant(name) => write!(f, "trace {name:?} already loaded"),
            TenantError::Load(msg) => write!(f, "cannot load trace: {msg}"),
            TenantError::EmptyReload { name, live_records } => write!(
                f,
                "reload of trace {name:?} parsed to an empty trace; \
                 refusing to replace the {live_records}-record generation"
            ),
        }
    }
}

impl std::error::Error for TenantError {}

/// Read a tenant's source through the one trace loader and index it.
/// A packed `.hpct` store streams straight into its stored index.
fn load_source(source: &TenantSource) -> Result<TraceIndex, TenantError> {
    let path = match source {
        TenantSource::File(path) => path,
        TenantSource::Static(trace) => return Ok(trace.index()),
    };
    let load_err =
        |e: &dyn std::fmt::Display| TenantError::Load(format!("{}: {e}", path.display()));
    let ingest = open_trace(path, IngestPolicy::FailFast)
        .map_err(|e| load_err(&e))?
        .map_err(|e| load_err(&e))?;
    Ok(ingest.index)
}

/// The named-tenant registry.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub(crate) fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Load a tenant from its source and register it under `name`.
    ///
    /// # Errors
    ///
    /// [`TenantError::DuplicateTenant`] on a name collision;
    /// [`TenantError::Load`] when the source cannot be read.
    pub fn insert(&self, name: &str, source: TenantSource) -> Result<Arc<Tenant>, TenantError> {
        let index = load_source(&source)?;
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            generation: 1,
            source,
            index,
        });
        let mut map = self.tenants.write().expect("tenant registry");
        if map.contains_key(name) {
            return Err(TenantError::DuplicateTenant(name.to_string()));
        }
        map.insert(name.to_string(), tenant.clone());
        Ok(tenant)
    }

    /// Look up a tenant by name (cheap `Arc` clone).
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant registry")
            .get(name)
            .cloned()
    }

    /// Snapshot of all tenants, in name order.
    pub(crate) fn snapshot(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant registry")
            .values()
            .cloned()
            .collect()
    }

    /// Tenant names, in order.
    pub fn names(&self) -> Vec<String> {
        self.tenants
            .read()
            .expect("tenant registry")
            .keys()
            .cloned()
            .collect()
    }

    /// Atomically reload one tenant: re-read its source, rebuild the
    /// index *outside* any lock, then swap the `Arc` in. In-flight
    /// readers holding the old `Arc` are unaffected. Returns the new
    /// tenant.
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownTenant`], a [`TenantError::Load`], or a
    /// [`TenantError::EmptyReload`] — in every failure case the old
    /// generation stays registered and keeps serving.
    pub fn reload(&self, name: &str) -> Result<Arc<Tenant>, TenantError> {
        let current = self
            .get(name)
            .ok_or_else(|| TenantError::UnknownTenant(name.to_string()))?;
        let index = load_source(&current.source)?;
        if index.is_empty() && !current.is_empty() {
            return Err(TenantError::EmptyReload {
                name: name.to_string(),
                live_records: current.len(),
            });
        }
        let rebuilt = Arc::new(Tenant {
            name: current.name.clone(),
            generation: current.generation + 1,
            source: current.source.clone(),
            index,
        });
        let mut map = self.tenants.write().expect("tenant registry");
        map.insert(name.to_string(), rebuilt.clone());
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcfail_records::{
        DetailedCause, FailureRecord, NodeId, SystemId, Timestamp, TraceStore, Workload,
    };

    fn tiny_trace(n: u64) -> FailureTrace {
        let records = (0..n)
            .map(|i| {
                let at = Timestamp::from_secs(1_000 + i * 7_200);
                FailureRecord::new(
                    SystemId::new(20),
                    NodeId::new((i % 4) as u32),
                    at,
                    at + 600,
                    Workload::Compute,
                    DetailedCause::Memory,
                )
                .unwrap()
            })
            .collect();
        FailureTrace::from_records(records)
    }

    #[test]
    fn registry_insert_get_and_duplicate() {
        let reg = TenantRegistry::new();
        let src = TenantSource::Static(Arc::new(tiny_trace(10)));
        reg.insert("a", src.clone()).unwrap();
        assert!(matches!(
            reg.insert("a", src),
            Err(TenantError::DuplicateTenant(_))
        ));
        assert_eq!(reg.get("a").unwrap().len(), 10);
        assert!(reg.get("b").is_none());
        assert_eq!(reg.names(), vec!["a".to_string()]);
    }

    #[test]
    fn reload_bumps_generation_and_keeps_old_readers_valid() {
        let reg = TenantRegistry::new();
        reg.insert("t", TenantSource::Static(Arc::new(tiny_trace(25))))
            .unwrap();
        let old = reg.get("t").unwrap();
        assert_eq!(old.generation, 1);
        let new = reg.reload("t").unwrap();
        assert_eq!(new.generation, 2);
        // The old Arc still answers queries after the swap.
        assert_eq!(old.index().all().len(), 25);
        assert_eq!(reg.get("t").unwrap().generation, 2);
        assert!(matches!(
            reg.reload("missing"),
            Err(TenantError::UnknownTenant(_))
        ));
    }

    #[test]
    fn reload_refuses_to_replace_records_with_an_empty_trace() {
        let dir = std::env::temp_dir().join("hpcfail_serve_tenant_empty_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        hpcfail_records::io::write_csv(&tiny_trace(7), std::fs::File::create(&path).unwrap())
            .unwrap();
        let reg = TenantRegistry::new();
        reg.insert("t", TenantSource::File(path.clone())).unwrap();
        // The file is truncated to nothing (disk full, torn write, …):
        // the reload must fail typed and the old generation must stay.
        std::fs::write(&path, "").unwrap();
        let err = reg.reload("t").unwrap_err();
        assert!(
            matches!(
                err,
                TenantError::EmptyReload {
                    live_records: 7,
                    ..
                }
            ),
            "{err:?}"
        );
        let live = reg.get("t").unwrap();
        assert_eq!(live.generation, 1);
        assert_eq!(live.len(), 7);
        // An empty tenant may still reload to empty (no regression).
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "").unwrap();
        reg.insert("e", TenantSource::File(empty)).unwrap();
        assert_eq!(reg.reload("e").unwrap().generation, 2);
    }

    #[test]
    fn packed_tenant_loads_and_reloads_by_magic_sniff() {
        let dir = std::env::temp_dir().join("hpcfail_serve_tenant_packed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.hpct");
        let trace = tiny_trace(12);
        TraceStore::write(&trace.index(), &path).unwrap();
        let reg = TenantRegistry::new();
        reg.insert("t", TenantSource::File(path.clone())).unwrap();
        let t = reg.get("t").unwrap();
        assert_eq!(t.len(), 12);
        assert_eq!(t.index().all().len(), 12);
        // Repack with more records; reload must pick them up without a rebuild.
        TraceStore::write(&tiny_trace(20).index(), &path).unwrap();
        assert_eq!(reg.reload("t").unwrap().len(), 20);
        // A damaged packed file fails typed and keeps the old generation.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = reg.reload("t").unwrap_err();
        assert!(matches!(err, TenantError::Load(_)), "{err:?}");
        let live = reg.get("t").unwrap();
        assert_eq!(live.generation, 2);
        assert_eq!(live.len(), 20);
    }

    /// A packed file cut below its 24-byte header fails the reload as
    /// a typed load error naming the truncation; the old generation
    /// keeps serving.
    #[test]
    fn packed_file_shrunk_below_its_header_keeps_the_old_generation() {
        let dir = std::env::temp_dir().join("hpcfail_serve_tenant_shrunk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.hpct");
        TraceStore::write(&tiny_trace(9).index(), &path).unwrap();
        let reg = TenantRegistry::new();
        reg.insert("t", TenantSource::File(path.clone())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..20]).unwrap();
        match reg.reload("t") {
            Err(TenantError::Load(msg)) => assert!(
                msg.contains("truncated .hpct file: need 32 bytes, have 20"),
                "{msg}"
            ),
            other => panic!("expected a typed load error, got {other:?}"),
        }
        let live = reg.get("t").unwrap();
        assert_eq!(live.generation, 1);
        assert_eq!(live.index().all().to_trace(), tiny_trace(9));
    }

    #[test]
    fn file_tenant_reload_rereads_the_file() {
        let dir = std::env::temp_dir().join("hpcfail_serve_tenant_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        hpcfail_records::io::write_csv(&tiny_trace(5), std::fs::File::create(&path).unwrap())
            .unwrap();
        let reg = TenantRegistry::new();
        reg.insert("t", TenantSource::File(path.clone())).unwrap();
        assert_eq!(reg.get("t").unwrap().len(), 5);
        hpcfail_records::io::write_csv(&tiny_trace(9), std::fs::File::create(&path).unwrap())
            .unwrap();
        let new = reg.reload("t").unwrap();
        assert_eq!(new.len(), 9);
        assert_eq!(new.generation, 2);
    }
}
